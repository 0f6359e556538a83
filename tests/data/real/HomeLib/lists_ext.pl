% List utilities in the style of library(lists).

:- module(lists_ext, [sum_list/2, max_member/2, last/2, nth0/3, functor_names/2]).
:- use_module(library(util/apply_ext), [foldl/4]).
:- discontiguous nth_/3.

%!  sum_list(+List, -Sum) is det.
sum_list(Xs, Sum) :-
    foldl(plus_, Xs, 0, Sum).

plus_(X, Y0, Y) :- Y is Y0 + X.

max_member(Max, [H|T]) :-
    max_member_(T, H, Max).

max_member_([], Max, Max).
max_member_([H|T], Max0, Max) :-
    (   H @=< Max0
    ->  Max1 = Max0
    ;   Max1 = H
    ),
    max_member_(T, Max1, Max).

last([X], X) :- !.
last([_|T], X) :- last(T, X).

nth0(I, L, E) :- integer(I), I >= 0, nth_(L, I, E).
nth_([H|_], 0, H) :- !.
nth_([_|T], I, E) :- I1 is I - 1, nth_(T, I1, E).

functor_names([], []).
functor_names([T|Ts], [N|Ns]) :-
    \+ var(T),
    T =.. [N|_],
    N @< zzz,
    functor_names(Ts, Ns).
