% Character codes, strings and numbers, declared the ExLibris way.

:- defines([digit_weight/2, is_dot/1, quote_code/1, greeting/1, ratio/3]).
:- defines(not(swi(_)), [string_code/3]).
:- requires([sum_list/2]).

digit_weight(C, W) :- C >= 0'0, C =< 0'9, W is C - 0'0.
is_dot(0'.).
quote_code(0''').
greeting("Hello, world. Bye.").
ratio(X, Y, R) :- Y =\= 0, R is X / Y * 1.5.
braces({a}).
codes(`abc.`).
weights(Ds, S) :- maplist(digit_weight, Ds, Ws), sum_list(Ws, S).

string_code(I, S, C) :-
    string_codes(S, Cs),
    nth1(I, Cs, C).
