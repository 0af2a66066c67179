module J = Hcv_explore.Jsonx
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

let bad ?id ?context fmt =
  Format.kasprintf
    (fun msg ->
      Error (id, Diag.v ~stage:"serve" ~code:"bad-request" ?context msg))
    fmt

let field j k = J.member k j
let str_field j k = Option.bind (field j k) J.str
let bool_field j k =
  Option.bind (field j k) (function J.Bool b -> Some b | _ -> None)

(* An [int] field that, when present, must be an exact integer
   satisfying [ok]; anything else is refused by name, never defaulted. *)
let int_field ?id ~what ~ok j k =
  match field j k with
  | None -> Ok None
  | Some v -> (
    match J.int v with
    | Some n when ok n -> Ok (Some n)
    | Some _ | None -> bad ?id "field %S must be %s" k what)

let pos_field ?id j k =
  int_field ?id ~what:"a positive integer" ~ok:(fun n -> n > 0) j k

(* A positive [int] field with an upper bound: the sizes the daemon
   allocates or iterates over are capped at the boundary. *)
let bounded_field ?id ~max j k =
  match pos_field ?id j k with
  | Ok (Some n) when n > max -> bad ?id "field %S must be 1..%d" k max
  | r -> r

(* Like [pos_field] but admitting zero: a zero deadline is the
   fast-fail probe ("answer with whatever you already have"). *)
let nonneg_field ?id j k =
  int_field ?id ~what:"a non-negative integer" ~ok:(fun n -> n >= 0) j k

(* The optional "machine" field: a family name (string) or an inline
   machine-description object.  Both are validated at the protocol
   boundary; descriptions are re-serialised to the canonical text, so
   equal machines key equally downstream whatever the client's
   formatting. *)
let parse_machine ?id j =
  match field j "machine" with
  | None -> Ok Default
  | Some (J.Str f) ->
    if List.mem f Hcv_machine.Family.names then Ok (Family f)
    else
      bad ?id "unknown machine family %S (known: %s)" f
        (String.concat ", " Hcv_machine.Family.names)
  | Some (J.Obj _ as d) -> (
    match Hcv_explore.Machdesc.of_json d with
    | Ok m -> Ok (Desc (Hcv_explore.Machdesc.to_string m))
    | Error msg -> bad ?id "bad machine description: %s" msg)
  | Some _ ->
    bad ?id
      "field \"machine\" must be a family name or a description object"

let parse_spec ?id j =
  match bounded_field ?id ~max:8 j "buses" with
  | Error e -> Error e
  | Ok buses -> (
    let buses = Option.value buses ~default:1 in
    match
      bounded_field ?id ~max:Hcv_explore.Machdesc.max_grid_steps j "grid_steps"
    with
    | Error e -> Error e
    | Ok grid_steps -> (
      match parse_machine ?id j with
      | Error e -> Error e
      | Ok machine -> Ok { buses; grid_steps; machine }))

(* Four times the 16 loops per benchmark any caller asks for by default. *)
let max_loops = 64

let parse_run ?id ?frontier ~name ~source j =
  match parse_spec ?id j with
  | Error e -> Error e
  | Ok spec -> (
    match pos_field ?id j "budget" with
    | Error e -> Error e
    | Ok budget -> (
      match nonneg_field ?id j "deadline_ms" with
      | Error e -> Error e
      | Ok deadline_ms ->
        let degrade = Option.value (bool_field j "degrade") ~default:false in
        Ok (Run { name; source; spec; budget; deadline_ms; degrade; frontier })))

let parse line =
  match J.of_string line with
  | Error msg ->
    (* Best effort at salvaging an id for the error response: the line
       did not parse, so there is none. *)
    Error
      ( None,
        Diag.v ~stage:"serve" ~code:"bad-json"
          ~context:[ ("detail", msg) ]
          "request is not a JSON object" )
  | Ok j -> (
    let id = str_field j "id" in
    match j with
    | J.Obj _ -> (
      match id with
      | None | Some "" ->
        Error
          ( None,
            Diag.v ~stage:"serve" ~code:"bad-request"
              "request needs a non-empty string \"id\"" )
      | Some id -> (
        let ret = function
          | Ok req -> Ok { id; req }
          | Error (_, d) -> Error (Some id, d)
        in
        match str_field j "op" with
        | None -> ret (bad ~id "request needs a string \"op\"")
        | Some "ping" -> ret (Ok Ping)
        | Some "stats" -> ret (Ok Stats)
        | Some "shutdown" -> ret (Ok Shutdown)
        | Some (("explore" | "frontier") as op) -> (
          match str_field j "bench" with
          | None -> ret (bad ~id "op %S needs a string \"bench\"" op)
          | Some bench -> (
            (* "objectives"/"caps" ride at the top level of a frontier
               request object; both default as in Frontier.spec. *)
            let frontier =
              if op = "explore" then Ok None
              else Result.map Option.some (Hcv_core.Frontier.spec_of_json j)
            in
            match
              ( frontier,
                bounded_field ~id ~max:max_loops j "loops",
                int_field ~id ~what:"an integer" ~ok:(fun _ -> true) j "seed"
              )
            with
            | Error msg, _, _ -> ret (bad ~id "%s" msg)
            | _, Error e, _ | _, _, Error e -> ret (Error e)
            | Ok frontier, Ok n_loops, Ok seed ->
              let seed = Option.value seed ~default:42 in
              ret
                (parse_run ~id ?frontier ~name:bench
                   ~source:(Bench { bench; seed; n_loops })
                   j)))
        | Some "schedule" -> (
          let name = Option.value (str_field j "name") ~default:"adhoc" in
          match (str_field j "dsl", field j "graph") with
          | Some dsl, None -> ret (parse_run ~id ~name ~source:(Dsl dsl) j)
          | None, Some g -> ret (parse_run ~id ~name ~source:(Graph g) j)
          | Some _, Some _ ->
            ret (bad ~id "op \"schedule\" takes \"dsl\" or \"graph\", not both")
          | None, None ->
            ret (bad ~id "op \"schedule\" needs \"dsl\" or \"graph\""))
        | Some op ->
          Error
            ( Some id,
              Diag.v ~stage:"serve" ~code:"unknown-op"
                ~context:[ ("op", op) ]
                (Printf.sprintf "unknown op %S" op) )))
    | _ ->
      Error
        ( None,
          Diag.v ~stage:"serve" ~code:"bad-request"
            "request must be a JSON object" ))

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

let diag_of_json j =
  let ctx =
    match Option.bind (J.member "context" j) J.list with
    | None -> []
    | Some kvs ->
      List.filter_map
        (function
          | J.List [ J.Str k; J.Str v ] -> Some (k, v)
          | _ -> None)
        kvs
  in
  Diag.v
    ?stage:(Option.bind (J.member "stage" j) J.str)
    ~code:
      (Option.value ~default:"unknown"
         (Option.bind (J.member "code" j) J.str))
    ~context:ctx
    (Option.value ~default:"" (Option.bind (J.member "msg" j) J.str))

let parse_response line =
  match J.of_string line with
  | Error msg -> Error msg
  | Ok j -> (
    match Option.bind (J.member "ok" j) (function
        | J.Bool b -> Some b
        | _ -> None) with
    | None -> Error "response has no boolean \"ok\""
    | Some ok ->
      Ok
        {
          rid = Option.bind (J.member "id" j) J.str;
          ok;
          op = Option.bind (J.member "op" j) J.str;
          result = J.member "result" j;
          error = Option.map diag_of_json (J.member "error" j);
        })
