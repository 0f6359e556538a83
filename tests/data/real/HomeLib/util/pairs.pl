% Key-value pairs as pair(Key, Value) terms.  This file declares nothing,
% so only `mkindex --clause-fallback` indexes it, by its clause heads.

:- dynamic cached/2.

pairs_keys([], []).
pairs_keys([pair(K, _)|Pairs], [K|Keys]) :-
    pairs_keys(Pairs, Keys).

pairs_values([], []).
pairs_values([pair(_, V)|Pairs], [V|Values]) :-
    pairs_values(Pairs, Values).

lookup(Key, [pair(K, V)|Pairs], Value) :-
    (   K == Key
    ->  Value = V
    ;   lookup(Key, Pairs, Value)
    ).

empty_pairs([]).
