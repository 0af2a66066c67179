open Hcv_core
module E = Hcv_explore
module J = E.Jsonx
module Diag = Hcv_obs.Diag
open Hcv_workload

type task = {
  work : Proto.work;
  cell : Sweep.cell;
  loops : Hcv_ir.Loop.t list;
  canonical : string;
  key : string;
}

(* Bump on any change to the serve key derivation or the budgeted
   execution path that invalidates persisted outcomes. *)
let serve_salt = "hcv-serve-v1"

let err code ?context fmt =
  Format.kasprintf
    (fun msg -> Error (Diag.v ~stage:"serve" ~code ?context msg))
    fmt

(* ----- JSON DDG payload -> loop-DSL text --------------------------- *)

(* Lowering to the DSL reuses its validation (opcodes, duplicate nodes,
   unknown edge endpoints, negative distances and latencies, DDG
   well-formedness) instead of duplicating it; what is checked here is
   what the text cannot show: each field's JSON type, and token safety,
   since names become DSL tokens.  A field present with the wrong type
   is refused by name, never silently dropped. *)

let token_ok s =
  s <> ""
  && String.for_all
       (fun c -> c > ' ' && c <> '#' && Char.code c < 0x7f)
       s

let lower_graph g =
  let ( let* ) = Result.bind in
  let all f xs =
    List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) xs
  in
  let opt ~where j k what conv =
    match J.member k j with
    | None -> Ok None
    | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None ->
        err "bad-graph" ~context:[ ("field", k) ] "%s: field %S must be %s"
          where k what)
  in
  let token v =
    Option.bind (J.str v) (fun s -> if token_ok s then Some s else None)
  in
  let buf = Buffer.create 256 in
  let lower l =
    let* () =
      match l with
      | J.Obj _ -> Ok ()
      | _ -> err "bad-graph" "loop must be a JSON object"
    in
    let* name = opt ~where:"loop" l "name" "a string" J.str in
    let name = Option.value name ~default:"loop" in
    let* () =
      if token_ok name then Ok () else err "bad-graph" "bad loop name %S" name
    in
    let where = "loop " ^ name in
    let* trip = opt ~where l "trip" "an integer" J.int in
    let* weight = opt ~where l "weight" "a number" J.num in
    let* nodes =
      match Option.bind (J.member "nodes" l) J.list with
      | Some ns -> Ok ns
      | None -> err "bad-graph" "loop %s needs a \"nodes\" list" name
    in
    let* edges = opt ~where l "edges" "a list" J.list in
    Printf.bprintf buf "loop %s" name;
    Option.iter (Printf.bprintf buf " trip %d") trip;
    Option.iter (Printf.bprintf buf " weight %.17g") weight;
    Buffer.add_char buf '\n';
    let* () =
      all
        (fun n ->
          match
            ( Option.bind (J.member "n" n) J.str,
              Option.bind (J.member "op" n) J.str )
          with
          | Some id, Some op when token_ok id && token_ok op ->
            Printf.bprintf buf "  node %s %s\n" id op;
            Ok ()
          | _ ->
            err "bad-graph" "loop %s: node needs string \"n\" and \"op\"" name)
        nodes
    in
    let* () =
      all
        (fun e ->
          match
            ( Option.bind (J.member "s" e) J.str,
              Option.bind (J.member "d" e) J.str )
          with
          | Some s, Some d when token_ok s && token_ok d ->
            let* dist = opt ~where e "dist" "an integer" J.int in
            let* lat = opt ~where e "lat" "an integer" J.int in
            let* kind = opt ~where e "kind" "a DSL token" token in
            Printf.bprintf buf "  edge %s %s" s d;
            Option.iter (Printf.bprintf buf " dist %d") dist;
            Option.iter (Printf.bprintf buf " lat %d") lat;
            Option.iter (Printf.bprintf buf " kind %s") kind;
            Buffer.add_char buf '\n';
            Ok ()
          | _ ->
            err "bad-graph" "loop %s: edge needs string \"s\" and \"d\"" name)
        (Option.value edges ~default:[])
    in
    Buffer.add_string buf "end\n";
    Ok ()
  in
  match (match g with J.List ls -> ls | l -> [ l ]) with
  | [] -> err "bad-graph" "graph payload has no loops"
  | loops -> Result.map (fun () -> Buffer.contents buf) (all lower loops)

(* ----- deadlines --------------------------------------------------- *)

(* A deadline compiles onto the budget machinery: [deadline_ms *
   points_per_ms] work points, intersected with any explicit budget.
   The compile is deterministic (fixed calibration, no clocks), so a
   deadline changes neither the byte-determinism contract nor cache
   validity — it is just another budget. *)
let effective_budget (w : Proto.work) =
  match (w.Proto.budget, w.Proto.deadline_ms) with
  | b, None -> b
  | None, Some d -> Some (Sweep.budget_of_deadline d)
  | Some b, Some d -> Some (min b (Sweep.budget_of_deadline d))

(* The deadline was the binding constraint iff it compiled to a cap no
   looser than the explicit budget (or there was no explicit budget). *)
let deadline_binding (w : Proto.work) =
  match (w.Proto.deadline_ms, w.Proto.budget) with
  | None, _ -> false
  | Some _, None -> true
  | Some d, Some b -> Sweep.budget_of_deadline d <= b

(* ----- content keys ------------------------------------------------ *)

(* Computed once, at admission: keying resolves the cell's machine and
   digests it, which is the dearest part of a warm hit's admission. *)
let key_of (w : Proto.work) cell canonical =
  match (w.Proto.source, effective_budget w) with
  | Proto.Bench _, None ->
    (* Identical inputs to an exploration sweep cell: share its cache
       entries. *)
    Sweep.cell_key cell
  | _, budget ->
    E.Codec.digest
      [
        serve_salt;
        Sweep.cell_key cell;
        canonical;
        (match budget with None -> "-" | Some b -> string_of_int b);
      ]

let key t = t.key

let codec =
  {
    E.Engine.cell_key = key;
    encode = Sweep.outcome_to_string;
    decode = Sweep.outcome_of_string;
  }

(* ----- admission --------------------------------------------------- *)

let machine_sel (w : Proto.work) =
  match w.Proto.spec.Proto.machine with
  | Proto.Default -> Sweep.Paper
  | Proto.Family f -> Sweep.Family f
  | Proto.Desc d -> Sweep.Desc d

let cell_of (w : Proto.work) ~bench ~seed ~n_loops =
  (* Threading the frontier spec through the cell makes an unbudgeted
     frontier request key exactly as the CLI's frontier sweep cell —
     warm-cache sharing for free.  The machine selection rides the same
     way: cell keys cover it through the resolved machine's structural
     signature, so default-machine requests keep their historical
     keys. *)
  Sweep.cell ~buses:w.Proto.spec.Proto.buses
    ?grid_steps:w.Proto.spec.Proto.grid_steps ?frontier:w.Proto.frontier
    ~machine:(machine_sel w) ?n_loops ~seed bench

let task (w : Proto.work) ?(loops = []) ?(canonical = "") cell =
  { work = w; cell; loops; canonical; key = key_of w cell canonical }

let admit_dsl ~code (w : Proto.work) text =
  match Hcv_ir.Dsl.parse text with
  | Error e ->
    err code
      ~context:[ ("line", string_of_int e.Hcv_ir.Dsl.line) ]
      "payload: %s" e.Hcv_ir.Dsl.msg
  | Ok [] -> err "bad-request" "payload has no loops"
  | Ok loops ->
    (* The payload is the workload: seed and loop count play no role,
       the canonical text is what the key covers. *)
    Ok
      (task w ~loops ~canonical:(Hcv_ir.Dsl.print_all loops)
         (cell_of w ~bench:w.Proto.name ~seed:0 ~n_loops:None))

let admit (w : Proto.work) =
  match w.Proto.source with
  | Proto.Bench { bench; seed; n_loops } -> (
    match Specfp.find bench with
    | None ->
      err "unknown-benchmark"
        ~context:[ ("bench", bench) ]
        "unknown benchmark %S" bench
    | Some _ -> Ok (task w (cell_of w ~bench ~seed ~n_loops)))
  | Proto.Dsl text -> admit_dsl ~code:"bad-dsl" w text
  | Proto.Graph g -> (
    match lower_graph g with
    | Error d -> Error d
    | Ok text -> admit_dsl ~code:"bad-graph" w text)

(* ----- execution --------------------------------------------------- *)

let run t =
  let loops_of (c : Sweep.cell) =
    match t.work.Proto.source with
    | Proto.Bench _ ->
      Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed
        (Option.get (Specfp.find c.Sweep.bench))
    | Proto.Dsl _ | Proto.Graph _ -> t.loops
  in
  Sweep.run_cell ?budget:(effective_budget t.work) ~loops_of t.cell

(* ----- responses --------------------------------------------------- *)

let result_json (o : Sweep.outcome) =
  J.Obj
    ([
       ("bench", J.Str o.Sweep.bench);
       ("ed2", J.Str (E.Codec.float_to_string o.Sweep.ed2_ratio));
       ("time", J.Str (E.Codec.float_to_string o.Sweep.time_ratio));
       ("energy", J.Str (E.Codec.float_to_string o.Sweep.energy_ratio));
       ("fallbacks", J.Num (float_of_int o.Sweep.fallbacks));
     ]
    @ (match o.Sweep.causes with
      | [] -> []
      | cs -> [ ("causes", J.List (List.map (fun c -> J.Str c) cs)) ])
    @ [ ("hetero", o.Sweep.hetero) ]
    @ match o.Sweep.frontier with [] -> [] | ms -> [ ("frontier", J.List ms) ])

let answer (w : Proto.work) = function
  | Error d -> Error d
  | Ok (o : Sweep.outcome) -> (
    match o.Sweep.error with
    | Some msg ->
      Error
        (Diag.v ~stage:"serve" ~code:"pipeline-failed"
           ~context:[ ("bench", o.Sweep.bench) ]
           msg)
    | None ->
      if
        effective_budget w <> None
        && (not w.Proto.degrade)
        && List.mem "budget-exhausted" o.Sweep.causes
      then
        if deadline_binding w then
          Error
            (Diag.v ~stage:"serve" ~code:"deadline-exceeded"
               ~context:
                 [
                   ("bench", o.Sweep.bench);
                   ( "deadline_ms",
                     match w.Proto.deadline_ms with
                     | Some d -> string_of_int d
                     | None -> "-" );
                   ("fallbacks", string_of_int o.Sweep.fallbacks);
                 ]
               "the deadline bounds less scheduling work than the workload \
                needs (pass \"degrade\":true to accept the \
                estimate-fallback result)")
        else
          Error
            (Diag.v ~stage:"serve" ~code:"budget-exhausted"
               ~context:
                 [
                   ("bench", o.Sweep.bench);
                   ( "budget",
                     match w.Proto.budget with
                     | Some b -> string_of_int b
                     | None -> "-" );
                   ("fallbacks", string_of_int o.Sweep.fallbacks);
                 ]
               "scheduling exhausted the request's work budget (pass \
                \"degrade\":true to accept the estimate-fallback result)")
      else Ok (result_json o))

let response_line ~id (w : Proto.work) r =
  match answer w r with
  | Ok result -> Proto.ok_line ~id ~op:(Proto.op_name (Proto.Run w)) ~result ()
  | Error d -> Proto.error_line ~id:(Some id) d
