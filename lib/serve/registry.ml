open Hcv_core
module E = Hcv_explore
module J = E.Jsonx
module D = E.Decode
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
   since names become DSL tokens. *)

let token =
  let char c = c > ' ' && c <> '#' && Char.code c < 0x7f in
  D.refine "a DSL token"
    (fun s -> if s <> "" && String.for_all char s then Some s else None)
    D.string

(* An optional DSL attribute: absent renders as nothing. *)
let tail fmt = Option.fold ~none:"" ~some:(Printf.sprintf fmt)

let node =
  D.(
    obj "node"
      (let+ n = req "n" token
       and+ op = req "op" token in
       Printf.sprintf "  node %s %s\n" n op))

let edge =
  D.(
    obj "edge"
      (let+ s = req "s" token
       and+ d = req "d" token
       and+ dist = opt "dist" int
       and+ lat = opt "lat" int
       and+ kind = opt "kind" token in
       Printf.sprintf "  edge %s %s%s%s%s\n" s d (tail " dist %d" dist)
         (tail " lat %d" lat) (tail " kind %s" kind)))

let loop =
  D.(
    obj "loop"
      (let+ name = dflt "name" "loop" token
       and+ trip = opt "trip" int
       and+ weight = opt "weight" number
       and+ nodes = req "nodes" (list node)
       and+ edges = dflt "edges" [] (list edge) in
       String.concat ""
         ((Printf.sprintf "loop %s%s%s\n" name (tail " trip %d" trip)
             (tail " weight %.17g" weight)
          :: nodes)
         @ edges @ [ "end\n" ])))

let graph =
  let loops = D.map (String.concat "") (D.non_empty loop) in
  D.union "a loop object or a list of them" (function
    | J.List _ -> Some loops
    | _ -> Some loop)

let lower_graph g =
  Result.map_error
    (fun (e : D.error) ->
      Diag.v ~stage:"serve" ~code:"bad-graph"
        ~context:[ ("field", e.D.field) ]
        (D.message e))
    (D.run ~root:"graph" graph g)

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
