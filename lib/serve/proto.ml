module J = Hcv_explore.Jsonx
module Machdesc = Hcv_explore.Machdesc
module Diag = Hcv_obs.Diag

type machine_choice =
  | Default
  | Family of string
  | Desc of string

type machine_spec = {
  buses : int;
  grid_steps : int option;
  machine : machine_choice;
}

type source =
  | Bench of { bench : string; seed : int; n_loops : int option }
  | Dsl of string
  | Graph of J.t

type work = {
  name : string;
  source : source;
  spec : machine_spec;
  budget : int option;
  deadline_ms : int option;
  degrade : bool;
  frontier : Hcv_core.Frontier.spec option;
}

type request = Ping | Stats | Shutdown | Run of work

type envelope = { id : string; req : request }

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Run { frontier = Some _; _ } -> "frontier"
  | Run { source = Bench _; _ } -> "explore"
  | Run { source = Dsl _ | Graph _; _ } -> "schedule"

(* ----- parsing ----------------------------------------------------- *)

open Hcv_explore.Decode

let bad ?(code = "bad-request") ?context msg =
  Diag.v ~stage:"serve" ~code ?context msg

let id =
  req "id"
    (refine "a non-empty string" (function "" -> None | s -> Some s) string)

(* The envelope every op takes; each op's body receives the deadline. *)
let envelope body =
  let+ id = id
  and+ deadline_ms = opt "deadline_ms" (int_in 0)
  and+ make = body in
  { id; req = make deadline_ms }

(* The optional "machine" field: a family name or an inline description,
   re-serialised to the canonical text, so equal machines key equally
   downstream whatever the client's formatting. *)
let machine =
  let family = enum (List.map (fun f -> (f, Family f)) Hcv_machine.Family.names)
  and desc = map (fun m -> Desc (Machdesc.to_string m)) Machdesc.decoder in
  union "a family name or a description object" (function
    | J.Str _ -> Some family
    | J.Obj _ -> Some desc
    | _ -> None)

let work =
  let+ buses = dflt "buses" 1 (int_in 1 ~max:8)
  and+ grid_steps = opt "grid_steps" (int_in 1 ~max:Machdesc.max_grid_steps)
  and+ machine = dflt "machine" Default machine
  and+ budget = opt "budget" (int_in 1)
  and+ degrade = dflt "degrade" false bool in
  fun ?frontier ~name source deadline_ms ->
    Run
      {
        name;
        source;
        spec = { buses; grid_steps; machine };
        budget;
        deadline_ms;
        degrade;
        frontier;
      }

(* Four times the 16 loops per benchmark any caller asks for by default. *)
let max_loops = 64

let bench =
  let+ bench = req "bench" string
  and+ n_loops = opt "loops" (int_in 1 ~max:max_loops)
  and+ seed = dflt "seed" 42 int in
  (bench, Bench { bench; seed; n_loops })

let payload =
  check
    (function
      | Some dsl, None -> Ok (Dsl dsl)
      | None, Some g -> Ok (Graph g)
      | Some _, Some _ ->
        Error "op \"schedule\" takes \"dsl\" or \"graph\", not both"
      | None, None -> Error "op \"schedule\" needs \"dsl\" or \"graph\"")
    (let+ dsl = opt "dsl" string
     and+ graph = opt "graph" json in
     (dsl, graph))

let control req = envelope (return (fun _ -> req))

let request =
  tagged "request" "op"
    [
      ("ping", control Ping);
      ("stats", control Stats);
      ("shutdown", control Shutdown);
      ( "explore",
        envelope
          (let+ name, source = bench and+ work in
           work ~name source) );
      ( "frontier",
        envelope
          (let+ name, source = bench
           and+ work
           and+ frontier = Hcv_core.Frontier.spec_fields in
           work ~frontier ~name source) );
      ( "schedule",
        envelope
          (let+ name = dflt "name" "adhoc" string
           and+ source = payload
           and+ work in
           work ~name source) );
    ]

let request_id = peek "request" id

let parse line =
  match J.of_string line with
  | Error msg ->
    (* The line did not parse, so there is no id to echo. *)
    Error
      ( None,
        bad ~code:"bad-json"
          ~context:[ ("detail", msg) ]
          "request is not a JSON object" )
  | Ok (J.Obj _ as j) -> (
    match run request j with
    | Ok envelope -> Ok envelope
    | Error e -> (
      (* The id's error first, and every other error echoes the id. *)
      match (run request_id j, e) with
      | Error e, _ -> Error (None, bad (message e))
      | Ok id, { problem = Unknown_tag op; path = "op"; _ } ->
        let unknown = bad ~code:"unknown-op" ~context:[ ("op", op) ] in
        Error (Some id, unknown (message e))
      | Ok id, e -> Error (Some id, bad (message e))))
  | Ok _ -> Error (None, bad "request must be a JSON object")

(* ----- rendering --------------------------------------------------- *)

let ok_line ~id ~op ?result () =
  J.to_string
    (J.Obj
       ([ ("id", J.Str id); ("ok", J.Bool true); ("op", J.Str op) ]
       @ match result with None -> [] | Some r -> [ ("result", r) ]))

let diag_json d =
  J.Obj
    [
      ( "stage",
        match Diag.stage d with None -> J.Null | Some s -> J.Str s );
      ("code", J.Str (Diag.code d));
      ("msg", J.Str (Diag.message d));
      ( "context",
        J.List
          (List.filter_map
             (fun (k, v) ->
               match k with
               | "stage" | "code" | "msg" -> None
               | _ -> Some (J.List [ J.Str k; J.Str v ]))
             (Diag.fields d)) );
    ]

let error_line ~id d =
  J.to_string
    (J.Obj
       [
         ("id", match id with None -> J.Null | Some id -> J.Str id);
         ("ok", J.Bool false);
         ("error", diag_json d);
       ])

let oversized_diag n =
  Diag.v ~stage:"serve" ~code:"oversized-line"
    ~context:[ ("bytes", string_of_int n) ]
    "request line exceeds the size limit; payload discarded"

let overloaded_diag ~queue_depth =
  Diag.v ~stage:"serve" ~code:"overloaded"
    ~context:[ ("queue_depth", string_of_int queue_depth) ]
    "request shed: the pending-request queue is full; retry with backoff"

(* ----- client side ------------------------------------------------- *)

type response = {
  rid : string option;
  ok : bool;
  op : string option;
  result : J.t option;
  error : Diag.t option;
}

let diag =
  obj "error"
    (let+ stage = req "stage" (nullable string)
     and+ code = req "code" string
     and+ msg = req "msg" string
     and+ context = req "context" (list (pair string string)) in
     Diag.v ?stage ~code ~context msg)

let response =
  obj "response"
    (let+ rid = req "id" (nullable string)
     and+ ok = req "ok" bool
     and+ op = opt "op" string
     and+ result = opt "result" json
     and+ error = opt "error" diag in
     { rid; ok; op; result; error })

let parse_response line = of_string response line
