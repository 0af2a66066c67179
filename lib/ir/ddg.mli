(** Data-dependence graphs of loop bodies.

    A DDG is an immutable graph over a dense array of instructions with
    dependence edges carrying (latency, distance).  Zero-distance edges
    must form a DAG (a same-iteration dependence cycle is meaningless);
    loop-carried cycles are recurrences and are analysed by {!Scc} and
    {!Recurrence}. *)

type t

(** {1 Construction} *)

module Builder : sig
  type ddg := t
  type t

  val create : unit -> t

  val add_instr : t -> ?name:string -> Opcode.t -> Instr.id
  (** Returns the dense id of the new instruction.  [name] defaults to
      ["n<id>"]. *)

  val add_edge :
    t -> ?kind:Edge.kind -> ?distance:int -> ?latency:int -> Instr.id
    -> Instr.id -> unit
  (** [latency] defaults to the latency of the source instruction, the
      common case for flow dependences.
      @raise Invalid_argument on unknown endpoints. *)

  val build : t -> ddg
  (** @raise Invalid_argument if the zero-distance subgraph has a
      cycle. *)
end

val of_instrs : Instr.t array -> Edge.t list -> t
(** Low-level constructor; performs the same validation as
    [Builder.build].  Instruction ids must equal their array index. *)

(** {1 Accessors} *)

val n_instrs : t -> int
val instr : t -> Instr.id -> Instr.t
val instrs : t -> Instr.t array
val edges : t -> Edge.t list
val n_edges : t -> int
val succs : t -> Instr.id -> Edge.t list
val preds : t -> Instr.id -> Edge.t list

val find_instr : t -> string -> Instr.t option
(** Lookup by name (first match). *)

(** {1 Indexed (CSR) view}

    Flat-array access for hot paths: no list traversal, no per-query
    allocation.  Edges are visited in the same order as the list
    accessors above (construction order per node). *)

val edge_array : t -> Edge.t array
(** All edges in construction order.  Physical array — do not mutate. *)

val succ_offsets : t -> int array
val succ_index : t -> int array
(** Node [i]'s out-edges are [edge_array.(succ_index.(k))] for [k] in
    [succ_offsets.(i) .. succ_offsets.(i+1) - 1], in construction order:
    the slices {!iter_succs} walks, for loops that take no closure.
    Physical arrays — do not mutate. *)

val pred_offsets : t -> int array
val pred_index : t -> int array
(** The same view of in-edges ({!iter_preds}). *)

val out_degree : t -> Instr.id -> int
val in_degree : t -> Instr.id -> int
val iter_succs : t -> Instr.id -> (Edge.t -> unit) -> unit
val iter_preds : t -> Instr.id -> (Edge.t -> unit) -> unit
val fold_succs : t -> Instr.id -> ('a -> Edge.t -> 'a) -> 'a -> 'a
val fold_preds : t -> Instr.id -> ('a -> Edge.t -> 'a) -> 'a -> 'a

(** {1 Analyses} *)

val fu_demand : t -> (Opcode.fu_kind * int) list
(** Number of instructions per resource kind (every kind present in
    [Opcode.all_fu_kinds], possibly with count 0). *)

val topo_order : t -> Instr.id list
(** Topological order of the zero-distance subgraph. *)

val acyclic_critical_path : t -> int
(** Length (sum of edge latencies, plus the last instruction's latency)
    of the longest path through zero-distance edges — a lower bound on
    the iteration length in cycles on a single-frequency machine. *)

val earliest_starts : t -> int array
(** Longest-path-from-roots start cycle for each instruction over the
    zero-distance subgraph (ASAP times with infinite resources). *)

val heights : t -> int array
(** Longest path (in latency) from each instruction to any sink of the
    zero-distance subgraph, including the instruction's own latency.
    Standard scheduling priority. *)

val total_energy : t -> float
(** Sum of per-instruction dynamic energies (relative to an int add). *)

val pp : Format.formatter -> t -> unit
