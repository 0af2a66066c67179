(** Independent schedule-legality verifier — the fuzzing oracle.

    Every guarantee the schedulers give about legality (FU and bus
    conflicts modulo II, cross-clock-domain dependence latencies,
    transfer timing, register pressure) is otherwise implicit in the
    scheduler's own data structures: the modulo reservation tables
    ([Mrt]), the tick base ([Timing.Memo]) and the pseudo-schedule
    estimator caches ([Pseudo]).  This module re-derives all of those
    conditions from first principles — straight from the paper's §2/§4
    rules and the raw [Schedule.t]/[Clocking.t] records, using nothing
    but exact rational arithmetic and the DDG accessors — so a bug in
    any of the hot-path structures cannot hide from it.  It shares no
    occupancy or timing code with [Mrt], [Timing] or [Pseudo] (nor with
    [Schedule.validate], which is built on [Timing]).

    The rules, re-stated independently:

    - clocking: IT > 0, and every domain's (II, cycle time) pair
      satisfies [II >= 1] and [II * ct = IT] exactly;
    - an instruction at cycle [k] of cluster [c] starts at [k * ct_c]
      and defines its value [latency] effective cycles later, where the
      effective cycle time is [ct_c] except for memory operations,
      which advance at [max ct_c ct_cache];
    - FU occupancy: at most [capacity] operations of a resource kind in
      any modulo slot [k mod II_c] of a cluster;
    - bus occupancy: at most [buses] transfers in any modulo slot
      [b mod II_icn];
    - a transfer may depart no earlier than one full ICN cycle after
      its value is defined: [(b - 1) * ct_icn >= def(src)];
    - a same-cluster dependence of distance [d] needs
      [start(dst) + d*IT >= start(src) + latency_e * eff_ct(src)];
    - a cross-cluster value dependence needs a transfer to the
      consumer's cluster arriving (at [(b + buslat) * ct_icn]) no later
      than [start(dst) + d*IT];
    - a cross-cluster non-value dependence pays one ICN cycle of
      synchronisation instead of a bus;
    - per-cluster summed value lifetimes must not exceed
      [registers * IT]. *)

open Hcv_support
open Hcv_machine
open Hcv_sched

type violation = { rule : string; detail : string }
(** [rule] is a stable category tag: ["structure"], ["clocking"],
    ["placement"], ["fu-capacity"], ["bus-capacity"], ["transfer"],
    ["dependence"] or ["register-pressure"]. *)

val verify : Schedule.t -> (unit, violation list) result
(** Check every legality rule above; returns all violations found. *)

val verify_clocking :
  config:Opconfig.t -> Clocking.t -> (unit, violation list) result
(** Check a clocking against the operating configuration it was derived
    from: domain count, [II * ct = IT] integrality, no domain clocked
    above its configured maximum frequency, and — under a discrete
    frequency grid — every domain frequency a member of the grid. *)

val lifetime_sums : Schedule.t -> Q.t array
(** Independently derived per-cluster summed value lifetimes (ns): each
    value lives in its producer's register file from definition to its
    last same-cluster read or last bus departure, and in every
    destination cluster from bus arrival to the last read there.  The
    differential tests compare this against the production
    {!Schedule.lifetimes_ns}. *)

val to_strings : violation list -> string list
