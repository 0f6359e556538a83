/* Decimal numbers as a grammar. */

:- module(number_dcg, [digits/3, integer_phrase/2]).
:- use_module(library(text/codes), [digit_weight/2]).
:- op(700, xfx, ===>).
:- multifile user:portray/1.

digits([D|T]) --> digit(D), !, digits(T).
digits([]) --> [].

digit(D) --> [D], { code_type(D, digit) }.

integer_phrase(Codes, N) :-
    phrase(digits(Ds), Codes, Rest),
    Rest == [],
    to_integer(Ds, 0, N).

to_integer([], N, N).
to_integer([D|Ds], N0, N) :-
    digit_weight(D, W),
    N1 is N0*10 + W,
    to_integer(Ds, N1, N).

rule(digits ===> integer).
user:portray(X) :- X == '$number', write(number).
