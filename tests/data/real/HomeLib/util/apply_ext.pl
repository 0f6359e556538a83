/*  Higher-order list predicates.

    foldl/4 walks a list left to right; partition/4 splits one by a test.
*/

:- module(apply_ext, [foldl/4, partition/4]).
:- meta_predicate(foldl(3, ?, +, -)).
:- meta_predicate(partition(1, +, -, -)).

foldl(G, [X|Xs], V0, V) :-
    call(G, X, V0, V1),
    foldl(G, Xs, V1, V).
foldl(_, [], V, V).

partition(_, [], [], []).
partition(P, [H|T], I, E) :-
    (   call(P, H)
    ->  I = [H|I1], E = E1
    ;   I = I1, E = [H|E1]
    ),
    partition(P, T, I1, E1).
