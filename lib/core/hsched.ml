open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_sched

type stats = {
  it : Q.t;
  mit : Q.t;
  tries : int;
  sync_bumps : int;
  prePlaced : int;
}

let cluster_ct config i =
  (Opconfig.point config (Comp.Cluster i)).Opconfig.cycle_time

(* Can [cluster] host the recurrence members [nodes] (on top of the
   instructions [already] placed there) within its II? *)
let cluster_fits ~machine ~clocking ~ddg ~cluster ~already nodes min_ii =
  let ii = clocking.Clocking.cluster_ii.(cluster) in
  if min_ii > ii then false
  else begin
    let cl = Machine.cluster machine cluster in
    let members = nodes @ already in
    let res = Mii.res_mii_cluster cl ddg members in
    res <= ii
  end

let preplace_recurrences ?(obs = Hcv_obs.Trace.null) ~config ~clocking ddg =
  let machine = config.Opconfig.machine in
  let n_clusters = Machine.n_clusters machine in
  let recs = Recurrence.find_all ddg in
  (* Only the recurrences that do not fit every cluster need
     pre-placement (paper §4.1.1). *)
  let min_cluster_ii = Array.fold_left min max_int clocking.Clocking.cluster_ii in
  let needs_placement =
    List.filter (fun (r : Recurrence.t) -> r.Recurrence.min_ii > min_cluster_ii) recs
  in
  let placed_per_cluster = Array.make n_clusters [] in
  let rec place acc = function
    | [] -> Ok acc
    | (r : Recurrence.t) :: rest -> (
      (* Slowest feasible cluster (max cycle time; lowest index on
         ties). *)
      let best = ref None in
      for c = 0 to n_clusters - 1 do
        if
          cluster_fits ~machine ~clocking ~ddg ~cluster:c
            ~already:placed_per_cluster.(c) r.Recurrence.nodes
            r.Recurrence.min_ii
        then begin
          let ct = cluster_ct config c in
          match !best with
          | None -> best := Some (c, ct)
          | Some (_, bct) -> if Q.( > ) ct bct then best := Some (c, ct)
        end
      done;
      match !best with
      | None ->
        Error
          (Hcv_obs.Diag.v ~code:"preplace-no-cluster"
             ~context:
               [
                 ("recurrence", Format.asprintf "%a" Recurrence.pp r);
                 ("it", Format.asprintf "%a" Q.pp clocking.Clocking.it);
               ]
             "recurrence fits no cluster at this initiation time")
      | Some (c, _) ->
        placed_per_cluster.(c) <- r.Recurrence.nodes @ placed_per_cluster.(c);
        place
          (List.rev_append
             (List.map (fun i -> (i, c)) r.Recurrence.nodes)
             acc)
          rest)
  in
  let r = place [] needs_placement in
  (match r with
  | Ok placed ->
    Hcv_obs.Trace.add obs "preplace.placed" (List.length placed)
  | Error _ -> Hcv_obs.Trace.incr obs "preplace.rejects");
  r

type score_mode = Ed2 | Schedulability

(* The §4.1.2 energy inputs a partition does not change, fixed for one
   [schedule] call.  The coefficients are lazy: an unrealisable
   configuration raises at the first feasible estimate, as pricing it
   always has, and never when no estimate is feasible. *)
type energy_inputs = {
  coeffs : Model.coeffs Lazy.t;
  ins_energy : float array;  (* per instruction *)
  n_mem : float;  (* memory accesses per invocation *)
  trip : int;
}

let energy_inputs ~ctx ~config ~loop =
  let trip = loop.Loop.trip in
  {
    coeffs = lazy (Model.coeffs ctx ~config);
    ins_energy = Array.map Instr.energy (Ddg.instrs loop.Loop.ddg);
    n_mem = float_of_int (Loop.mem_accesses_per_iter loop * trip);
    trip;
  }

(* Score a candidate partition by the ED2 its pseudo-schedule predicts
   (paper §4.1.2): the activity of one invocation, from the workspace's
   scalars and the assignment, priced by {!Model.ed2_of} — each float
   computed as [Profile.activity_of_schedule] and [Model.ed2] compute
   it from the materialised schedule.  Unschedulable partitions keep
   the huge schedulability-first penalties so that any feasible
   partition wins. *)
let ed2_scorer inputs ws clocking =
  let n_clusters = Clocking.n_clusters clocking in
  let per_cluster = Array.make n_clusters 0.0 in
  let trip_f = float_of_int inputs.trip in
  let base_ns =
    float_of_int (inputs.trip - 1) *. Q.to_float clocking.Clocking.it
  in
  fun assignment ->
    Pseudo.Workspace.eval ws assignment;
    if not (Pseudo.Workspace.feasible ws) then
      1e14 +. Pseudo.Workspace.score ws
    else begin
      Array.fill per_cluster 0 n_clusters 0.0;
      for i = 0 to Array.length assignment - 1 do
        let c = assignment.(i) in
        per_cluster.(c) <- per_cluster.(c) +. inputs.ins_energy.(i)
      done;
      for c = 0 to n_clusters - 1 do
        per_cluster.(c) <- per_cluster.(c) *. trip_f
      done;
      let exec_time_ns =
        base_ns +. Q.to_float (Pseudo.Workspace.it_length ws)
      in
      (* [Activity.make]'s guard: an empty loop of trip 1 reaches it. *)
      if exec_time_ns <= 0.0 then
        invalid_arg "Activity.make: non-positive time";
      Model.ed2_of (Lazy.force inputs.coeffs) ~exec_time_ns
        ~per_cluster_ins_energy:per_cluster
        ~n_comms:(float_of_int (Pseudo.Workspace.n_comms ws * inputs.trip))
        ~n_mem:inputs.n_mem
    end

(* The partitioner's score at one IT attempt, over a workspace that
   lives exactly as long as the returned function. *)
let scorer inputs ~obs ~machine ~loop ~memo mode =
  let ws = Pseudo.Workspace.create ~memo ~obs ~machine ~loop in
  match mode with
  | Ed2 -> ed2_scorer inputs ws (Timing.Memo.clocking memo)
  | Schedulability ->
    fun assignment ->
      Pseudo.Workspace.eval ws assignment;
      Pseudo.Workspace.score ws

let partition_scorer ~ctx ~config ~loop ~memo mode =
  scorer
    (energy_inputs ~ctx ~config ~loop)
    ~obs:Hcv_obs.Trace.null ~machine:config.Opconfig.machine ~loop ~memo mode

(* Counter-safe slugs for the slot-scheduler failure causes (the
   human-readable {!Slot_sched.failure_to_string} strings have spaces). *)
let slot_failure_slug = function
  | Slot_sched.Budget_exhausted -> "budget_exhausted"
  | Slot_sched.Positive_cycle -> "positive_cycle"
  | Slot_sched.Register_pressure -> "register_pressure"

(* Raised (notrace: it is control flow, not an error) by the budget
   guard when a schedule call has spent its allotment of raw partition
   scorings; caught once at the top of [schedule]. *)
exception Budget_exhausted

(* Memoise a partition-scoring function by the exact assignment.  The
   multilevel refinement proposes the same (or a just-reverted)
   assignment over and over — each hit skips a whole pseudo-schedule.
   The key is the full assignment (one byte per instruction), so hits
   can never alias and the memo is behaviour-preserving; the score is
   pure for a fixed clocking, which is why the table must not outlive
   the IT attempt it was built for. *)
let memoised_score score =
  let cache : (string, float) Hashtbl.t = Hashtbl.create 256 in
  fun (assignment : int array) ->
    let key =
      String.init (Array.length assignment) (fun i ->
          Char.chr assignment.(i))
    in
    match Hashtbl.find_opt cache key with
    | Some s -> s
    | None ->
      let s = score assignment in
      Hashtbl.add cache key s;
      s

let schedule ?(obs = Hcv_obs.Trace.null) ~ctx ~config ~loop ?(max_tries = 64)
    ?(seed = 0) ?(preplace = true) ?(score_mode = Ed2) ?(score_memo = true)
    ?budget () =
  let machine = config.Opconfig.machine in
  (* One allotment for the whole call: the counter survives IT bumps, so
     a pathological config cannot spin through 64 attempts each paying
     full price. *)
  let budget_left = ref (Option.value budget ~default:max_int) in
  let inputs = energy_inputs ~ctx ~config ~loop in
  let n_clusters = Machine.n_clusters machine in
  let ddg = loop.Loop.ddg in
  match Mii.missing_kinds_msg machine ddg with
  | Some msg ->
    (* Capability-asymmetric machines can arrive from description
       files, so a demanded kind no cluster supports is a user input,
       not an invariant violation: fail structurally before Mit would
       trip its backstop. *)
    Hcv_obs.Trace.incr obs "hsched.machine_incapable";
    Error
      (Hcv_obs.Diag.v ~code:"machine-incapable"
         ~context:
           [ ("loop", loop.Loop.name); ("machine", machine.Machine.name) ]
         msg)
  | None ->
  let eligible = Mii.eligibility machine ddg in
  let mit = Mit.mit ~config ddg in
  let mit = if Q.sign mit <= 0 then Mit.next_candidate ~config ~after:Q.zero else mit in
  let groups =
    List.map (fun (r : Recurrence.t) -> r.Recurrence.nodes) (Recurrence.find_all ddg)
  in
  (* Coarsening depends only on (ddg, fixed, groups) — never on the
     clocking — so the hierarchy is shared across IT attempts and both
     restarts; it only rebuilds when preplacement pins the recurrences
     differently at the new IT. *)
  let hier_cache = ref None in
  let hier_for fixed =
    match !hier_cache with
    | Some (f, h) when f = fixed ->
      Hcv_obs.Trace.incr obs "partition.hier_reuses";
      h
    | Some _ | None ->
      let h = Partition.Hier.build ~ddg ~fixed ~groups () in
      Hcv_obs.Trace.incr obs "partition.hier_builds";
      hier_cache := Some (fixed, h);
      h
  in
  (* ED² is not priced in transfers, so the partitioner's
     transfer-delta pruning must stay off for it; the schedulability
     score is exactly {!Pseudo.score}, which the default threshold
     matches. *)
  let stressed =
    match score_mode with Ed2 -> 0.0 | Schedulability -> 1e7
  in
  let rec attempt it tries sync_bumps last_cause =
    if tries > max_tries then
      Error
        (Hcv_obs.Diag.v ~code:"unschedulable"
           ~context:
             [
               ("loop", loop.Loop.name);
               ("mit", Format.asprintf "%a" Q.pp mit);
               ("max_tries", string_of_int max_tries);
               ("last_cause", last_cause);
             ]
           "no heterogeneous schedule within the IT budget")
    else begin
      Hcv_obs.Trace.incr obs "hsched.attempts";
      let bump ~sync ~cause () =
        attempt
          (Mit.next_candidate ~config ~after:it)
          (tries + 1)
          (if sync then sync_bumps + 1 else sync_bumps)
          cause
      in
      match Clocking.of_config ~config ~it with
      | Error _ ->
        Hcv_obs.Trace.incr obs "hsched.clock_rejects";
        bump ~sync:true ~cause:"clocking" ()
      | Ok clocking -> (
        match
          ( Timing.Memo.create clocking,
            if preplace then preplace_recurrences ~obs ~config ~clocking ddg
            else Ok [] )
        with
        | Error d, _ ->
          Error (Hcv_obs.Diag.add_context [ ("loop", loop.Loop.name) ] d)
        | Ok _, Error _ -> bump ~sync:false ~cause:"preplace" ()
        | Ok memo, Ok fixed -> (
          let score = scorer inputs ~obs ~machine ~loop ~memo score_mode in
          (* The budget guard wraps the *raw* score, beneath the memo:
             only fresh pseudo-schedule evaluations spend budget, memo
             hits stay free — so a budget large enough for the distinct
             assignments never changes the result. *)
          let score =
            match budget with
            | None -> score
            | Some _ ->
              fun assignment ->
                if !budget_left <= 0 then raise_notrace Budget_exhausted
                else begin
                  decr budget_left;
                  score assignment
                end
          in
          (* The memo depends on the clocking, so it lives exactly as
             long as this IT attempt; sharing it across the two
             partitioner restarts below is what makes the second restart
             nearly free on its revisited assignments. *)
          let score =
            if score_memo && n_clusters <= 256 then memoised_score score
            else score
          in
          (* Two deterministic restarts of the multilevel partitioner
             over the shared hierarchy; keep the better-scored
             partition. *)
          let hier = hier_for fixed in
          let part_a =
            Partition.run_hier ~obs ~n_clusters ~hier ~seed ~stressed
              ?eligible ~score ()
          in
          let part_b =
            Partition.run_hier ~obs ~n_clusters ~hier ~seed:(seed + 1)
              ~stressed ?eligible ~score ()
          in
          let part =
            if part_b.Partition.score < part_a.Partition.score then part_b
            else part_a
          in
          match
            Slot_sched.run ~memo ~machine ~loop
              ~assignment:part.Partition.assignment ()
          with
          | Ok sched ->
            Ok
              ( sched,
                {
                  it;
                  mit;
                  tries;
                  sync_bumps;
                  prePlaced = List.length fixed;
                } )
          | Error f ->
            let cause = slot_failure_slug f in
            Hcv_obs.Trace.incr obs ("hsched.slot." ^ cause);
            bump ~sync:false ~cause ()))
    end
  in
  match attempt mit 1 0 "none" with
  | r -> r
  | exception Budget_exhausted ->
    Hcv_obs.Trace.incr obs "hsched.budget_exhausted";
    Error
      (Hcv_obs.Diag.v ~code:"budget-exhausted"
         ~context:
           [
             ("loop", loop.Loop.name);
             ("budget", string_of_int (Option.value budget ~default:0));
             ("mit", Format.asprintf "%a" Q.pp mit);
           ]
         "partition-scoring budget exhausted before a schedule was found")
