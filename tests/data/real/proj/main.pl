% An entry file that uses the home library.
:- requires([sum_list/2, max_member/2, integer_phrase/2, next_id/1, string_code/3]).
:- ensure_loaded(library(state)).

main :-
    integer_phrase(`42`, N),
    next_id(Id),
    format("~w ~w~n", [N, Id]).
