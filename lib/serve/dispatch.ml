module E = Hcv_explore
module J = E.Jsonx
module Diag = Hcv_obs.Diag

type t = {
  engine : E.Engine.t;
  default_deadline_ms : int option;
  mutable served : int;
  mutable errors : int;
  mutable shed : int;
  mutable deadline_exceeded : int;
  mutable drained : int;
  mutable gauges : unit -> (string * float) list;
  started_at : float;
}

let create ?default_deadline_ms engine =
  {
    engine;
    default_deadline_ms;
    served = 0;
    errors = 0;
    shed = 0;
    deadline_exceeded = 0;
    drained = 0;
    gauges = (fun () -> []);
    started_at = Unix.gettimeofday ();
  }

let jobs t = E.Engine.jobs t.engine

let served t = t.served
let errors t = t.errors
let shed t = t.shed
let drained t = t.drained

let note_drained t = t.drained <- t.drained + 1
let set_gauges t f = t.gauges <- f

(* ----- the one answer path ------------------------------------------ *)

(* Every line the daemon answers is rendered and counted by [refuse] or
   [reply], from the Diag or result already in hand. *)
let refuse t ?id d =
  t.served <- t.served + 1;
  t.errors <- t.errors + 1;
  (match Diag.code d with
  | "overloaded" -> t.shed <- t.shed + 1
  | "deadline-exceeded" -> t.deadline_exceeded <- t.deadline_exceeded + 1
  | _ -> ());
  Proto.error_line ~id d

let reply t ~id ~op = function
  | Ok result ->
    t.served <- t.served + 1;
    Proto.ok_line ~id ~op ?result ()
  | Error d -> refuse t ~id d

(* An exception escaping admission is a defect, not an input condition;
   it answers its own request, and its text is a function of the line,
   so the answer still is too. *)
let internal_diag e =
  Diag.v ~stage:"serve" ~code:"internal"
    ~context:[ ("exn", Printexc.to_string e) ]
    "internal error while admitting the request"

(* ----- stats -------------------------------------------------------- *)

let volatile_json t =
  J.Obj
    ([ ("uptime_s", J.Num (Unix.gettimeofday () -. t.started_at)) ]
    @ List.map (fun (k, v) -> (k, J.Num v)) (t.gauges ())
    @ [
        ("shed", J.Num (float_of_int t.shed));
        ("deadline_exceeded", J.Num (float_of_int t.deadline_exceeded));
        ("drained", J.Num (float_of_int t.drained));
      ])

let stats_json t =
  let cache =
    match E.Engine.cache t.engine with
    | None -> J.Null
    | Some c ->
      let s = E.Cache.stats c in
      J.Obj
        [
          ("hits", J.Num (float_of_int s.E.Cache.hits));
          ("misses", J.Num (float_of_int s.E.Cache.misses));
          ("entries", J.Num (float_of_int s.E.Cache.entries));
        ]
  in
  J.Obj
    [
      ("served", J.Num (float_of_int t.served));
      ("errors", J.Num (float_of_int t.errors));
      ("jobs", J.Num (float_of_int (jobs t)));
      ("cache", cache);
      ("volatile", volatile_json t);
    ]

(* ----- batches ------------------------------------------------------ *)

(* Fill in the server-side deadline default before admission, so the
   registry compiles and renders the work the daemon actually ran. *)
let with_default_deadline t (w : Proto.work) =
  match (w.Proto.deadline_ms, t.default_deadline_ms) with
  | None, Some d -> { w with Proto.deadline_ms = Some d }
  | _ -> w

(* One slot per envelope: an answer already rendered (control op,
   refused admission), or an admitted task waiting for its sweep
   result. *)
type slot =
  | Done of string
  | Pending of { id : string; op : string; task : Registry.task }

let handle t ?(obs = Hcv_obs.Trace.null) envelopes =
  Hcv_obs.Trace.span obs "batch" (fun sp ->
      let errors0 = t.errors and deadlines0 = t.deadline_exceeded in
      let keys = Hashtbl.create 16 in
      (* first occurrence of each key, in submission order, for the
         engine fan-out *)
      let unique = ref [] in
      let slots =
        List.map
          (fun { Proto.id; req } ->
            let op = Proto.op_name req in
            match req with
            | Proto.Ping | Proto.Shutdown -> Done (reply t ~id ~op (Ok None))
            | Proto.Stats -> Done (reply t ~id ~op (Ok (Some (stats_json t))))
            | Proto.Run work -> (
              match Registry.admit (with_default_deadline t work) with
              | Ok task ->
                if not (Hashtbl.mem keys task.Registry.key) then begin
                  Hashtbl.replace keys task.Registry.key ();
                  unique := task :: !unique
                end;
                Pending { id; op; task }
              | Error d -> Done (refuse t ~id d)
              | exception e -> Done (refuse t ~id (internal_diag e))))
          envelopes
      in
      let unique = List.rev !unique in
      let results = Hashtbl.create 16 in
      if unique <> [] then
        List.iter2
          (fun task r -> Hashtbl.replace results task.Registry.key r)
          unique
          (E.Engine.sweep t.engine ~obs:sp ~codec:Registry.codec
             Registry.run unique);
      let lines =
        List.map
          (function
            | Done line -> line
            | Pending { id; op; task } ->
              Hashtbl.find results task.Registry.key
              |> Registry.answer task.Registry.work
              |> Result.map Option.some |> reply t ~id ~op)
          slots
      in
      Hcv_obs.Trace.add sp "serve.requests" (List.length lines);
      Hcv_obs.Trace.add sp "serve.errors" (t.errors - errors0);
      Hcv_obs.Trace.add sp "serve.unique_cells" (List.length unique);
      (* Overload tallies are run-dependent under chaos (how many
         requests a slow client got shed, which retries hit a deadline),
         so they ride the volatile side of the trace: the deterministic
         view stays byte-stable across adversarial runs. *)
      let deadlines = t.deadline_exceeded - deadlines0 in
      if deadlines > 0 then
        Hcv_obs.Trace.vol sp "serve.deadline_exceeded" (float_of_int deadlines);
      lines)

let handle_line t ?obs line =
  match Proto.parse line with
  | Error (id, d) -> refuse t ?id d
  | Ok envelope -> (
    match handle t ?obs [ envelope ] with
    | [ l ] -> l
    | _ -> assert false)

let shutdown t = E.Engine.shutdown t.engine
