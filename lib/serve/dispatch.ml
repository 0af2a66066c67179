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
  (* Quarantined content keys: a key whose sweep cell the retry
     supervisor gave up on fast-fails here until restart, instead of
     burning the pool re-quarantining it on every identical request.
     Only engine quarantines land in it (never pipeline or budget
     outcomes), so a fault-free daemon never opens a circuit and the
     byte-determinism contract for clean requests is untouched. *)
  breaker : (string, Diag.t) Hashtbl.t;
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
    breaker = Hashtbl.create 16;
    gauges = (fun () -> []);
    started_at = Unix.gettimeofday ();
  }

let jobs t = E.Engine.jobs t.engine

let served t = t.served
let errors t = t.errors
let shed t = t.shed
let drained t = t.drained
let breaker_open t = Hashtbl.length t.breaker

let note_shed t = t.shed <- t.shed + 1
let note_drained t = t.drained <- t.drained + 1
let set_gauges t f = t.gauges <- f

(* Fill in the server-side deadline default before admission, so the
   registry compiles and renders the work the daemon actually ran. *)
let with_default_deadline t (w : Proto.work) =
  match (w.Proto.deadline_ms, t.default_deadline_ms) with
  | None, Some d -> { w with Proto.deadline_ms = Some d }
  | _ -> w

let circuit_open_diag ~key d =
  Diag.v ~stage:"serve" ~code:"circuit-open"
    ~context:[ ("key", key); ("cause", Diag.code d) ]
    "circuit open: an identical request was quarantined this run; \
     fast-failing instead of re-executing it"

let volatile_json t =
  J.Obj
    ([ ("uptime_s", J.Num (Unix.gettimeofday () -. t.started_at)) ]
    @ List.map (fun (k, v) -> (k, J.Num v)) (t.gauges ())
    @ [
        ("shed", J.Num (float_of_int t.shed));
        ("deadline_exceeded", J.Num (float_of_int t.deadline_exceeded));
        ("drained", J.Num (float_of_int t.drained));
        ("breaker_open", J.Num (float_of_int (Hashtbl.length t.breaker)));
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

(* One slot per envelope: either an already-rendered control response,
   or an admitted run task waiting for its sweep result. *)
type slot =
  | Done of string
  | Pending of { id : string; work : Proto.work; key : string }

(* Responses are rendered by this module, so they always re-parse. *)
let error_code line =
  match Proto.parse_response line with
  | Ok { Proto.ok = true; _ } -> None
  | Ok { Proto.error = Some d; _ } -> Some (Diag.code d)
  | Ok { Proto.error = None; _ } | Error _ -> Some "unparseable"

(* Codes the engine's supervisor quarantines a cell with (as opposed to
   a pipeline completing with a failure outcome). *)
let quarantine_code = function
  | "task-failed" | "injected-fault" -> true
  | _ -> false

let handle t ?(obs = Hcv_obs.Trace.null) envelopes =
  Hcv_obs.Trace.span obs "batch" (fun sp ->
      let tasks = Hashtbl.create 16 in
      (* first-occurrence submission order, for the engine fan-out *)
      let order = ref [] in
      let slots =
        List.map
          (fun { Proto.id; req } ->
            match req with
            | Proto.Ping -> Done (Proto.ok_line ~id ~op:"ping" ())
            | Proto.Shutdown -> Done (Proto.ok_line ~id ~op:"shutdown" ())
            | Proto.Stats ->
              Done (Proto.ok_line ~id ~op:"stats" ~result:(stats_json t) ())
            | Proto.Run work -> (
              let work = with_default_deadline t work in
              match Registry.admit work with
              | Error d -> Done (Proto.error_line ~id:(Some id) d)
              | Ok task -> (
                let key = Registry.key task in
                match Hashtbl.find_opt t.breaker key with
                | Some d ->
                  Done (Proto.error_line ~id:(Some id) (circuit_open_diag ~key d))
                | None ->
                  if not (Hashtbl.mem tasks key) then begin
                    Hashtbl.replace tasks key task;
                    order := key :: !order
                  end;
                  Pending { id; work; key })))
          envelopes
      in
      let unique = List.rev_map (Hashtbl.find tasks) !order in
      let results = Hashtbl.create 16 in
      if unique <> [] then
        List.iter2
          (fun task r ->
            let key = Registry.key task in
            (match r with
            | Error d when quarantine_code (Diag.code d) ->
              Hashtbl.replace t.breaker key d
            | Error _ | Ok _ -> ());
            Hashtbl.replace results key r)
          unique
          (E.Engine.sweep t.engine ~obs:sp ~codec:Registry.codec
             Registry.run unique);
      let lines =
        List.map
          (function
            | Done line -> line
            | Pending { id; work; key } ->
              Registry.response_line ~id work (Hashtbl.find results key))
          slots
      in
      let errs = List.length (List.filter_map error_code lines) in
      let deadlines =
        List.length
          (List.filter
             (fun l -> error_code l = Some "deadline-exceeded")
             lines)
      in
      t.served <- t.served + List.length lines;
      t.errors <- t.errors + errs;
      t.deadline_exceeded <- t.deadline_exceeded + deadlines;
      Hcv_obs.Trace.add sp "serve.requests" (List.length lines);
      Hcv_obs.Trace.add sp "serve.errors" errs;
      Hcv_obs.Trace.add sp "serve.unique_cells" (List.length unique);
      (* Overload tallies are run-dependent under chaos (how many
         requests a slow client got shed, which retries hit a deadline),
         so they ride the volatile side of the trace: the deterministic
         view stays byte-stable across adversarial runs. *)
      if deadlines > 0 then
        Hcv_obs.Trace.vol sp "serve.deadline_exceeded" (float_of_int deadlines);
      lines)

let handle_line t ?obs line =
  match Proto.parse line with
  | Error (id, d) ->
    t.served <- t.served + 1;
    t.errors <- t.errors + 1;
    Proto.error_line ~id d
  | Ok envelope -> (
    match handle t ?obs [ envelope ] with
    | [ l ] -> l
    | _ -> assert false)

let shutdown t = E.Engine.shutdown t.engine
