% What SWI-Prolog ships natively.
:- defines_module(built_in).
:- defines(swi(_), [string_code/3, nth0/3]).
