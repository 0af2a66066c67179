(** Maximum cycle ratio of a dependence subgraph.

    For a set of edges each carrying a latency [l(e)] and a distance
    [d(e)], the maximum cycle ratio is

      lambda* = max over cycles c of (sum l(e) / sum d(e), e in c).

    This is the exact per-recurrence lower bound on the initiation
    interval: a recurrence scheduled entirely in a cluster with
    initiation interval II is feasible iff [lambda* <= II].  Zero-
    distance cycles are assumed absent (guaranteed by {!Ddg}
    validation), so every cycle has [sum d(e) >= 1] and lambda* is
    finite. *)

open Hcv_support

val exact_over : Ddg.t -> Instr.id list -> Q.t option
(** Exact [lambda*] over the edges with both endpoints in [nodes], as a
    rational; [None] if that subgraph has no cycle.

    Computed in integers: a Bellman-Ford test for a cycle with
    [q * sum l - p * sum d > 0] under the current candidate [p/q],
    starting below every ratio, then a jump to the ratio of the positive
    cycle it finds, until none is left.  Every candidate is the
    [(sum l, sum d)] of a simple cycle.  With [n] nodes, [m] edges and
    edge values up to {!Dsl.max_edge_value} (255), each weight is below
    [2 * 255^2 * n] and each of the [n] rounds raises a distance by less
    than [m] weights, so every sum stays below [2 * 255^2 * n * m]:
    exact in 63 bits while [n * m < 3.5e13], which holds for any loop
    of a few million instructions. *)

val has_positive_cycle : Ddg.t -> Instr.id list -> Q.t -> bool
(** [has_positive_cycle ddg nodes r] tests whether the subgraph has a
    cycle with [sum l > r * sum d] — i.e. whether [lambda* > r].
    Exposed for property tests. *)
