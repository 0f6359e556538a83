% Fresh identifiers, kept in the database.

:- defines([next_id/1, reset_ids/0]).
:- dynamic counter/1.
:- dynamic seen/1, visited/2.
:- discontiguous helper/1.
:- if_pl(swi(_), ensure_loaded(library(compat/swi_ids)),
         ensure_loaded(library(compat/portable_ids))).

counter(0).

next_id(Id) :-
    retract(counter(Id0)),
    Id is Id0 + 1,
    assertz(counter(Id)).

reset_ids :-
    retractall(counter(_)),
    assertz(counter(0)).

helper(1).
