% Identifiers for any other engine.
:- defines(not(swi(_)), [id_flag/1]).

id_flag(id_counter) :- X = 0'a, X > 0.
