% Identifiers through SWI-Prolog's flags.
:- defines(swi(_), [id_flag/1]).

id_flag(F) :- F = "exlibris.id", \+ current_prolog_flag(F, _).
