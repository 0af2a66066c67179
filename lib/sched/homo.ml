open Hcv_ir
open Hcv_machine

type stats = { ii : int; tries : int; mii : int }

let schedule ~machine ~cycle_time ~loop ?(max_tries = 64) ?(seed = 0) () =
  let ddg = loop.Loop.ddg in
  let n_clusters = Machine.n_clusters machine in
  match Mii.missing_kinds_msg machine ddg with
  | Some msg -> Error (Printf.sprintf "%s: %s" loop.Loop.name msg)
  | None ->
  let mii = Mii.mii machine ddg in
  let eligible = Mii.eligibility machine ddg in
  (* Coarsening is clocking-independent: one hierarchy serves every II
     attempt. *)
  let hier =
    if n_clusters = 1 then None else Some (Partition.Hier.build ~ddg ())
  in
  let rec attempt ii tries =
    if tries > max_tries then
      Error
        (Printf.sprintf "no schedule for %s within %d IIs above MII=%d"
           loop.Loop.name max_tries mii)
    else
      let clocking = Clocking.homogeneous ~n_clusters ~ii ~cycle_time in
      match Timing.Memo.create clocking with
      | Error d -> Error (loop.Loop.name ^ ": " ^ Hcv_obs.Diag.to_string d)
      | Ok memo -> (
        let assignment =
          if n_clusters = 1 then Array.make (Ddg.n_instrs ddg) 0
          else begin
            (* One workspace per II attempt: the memo's clocking. *)
            let ws =
              Pseudo.Workspace.create ~memo ~obs:Hcv_obs.Trace.null ~machine
                ~loop
            in
            let score assignment =
              Pseudo.Workspace.eval ws assignment;
              Pseudo.Workspace.score ws
            in
            let hier = Option.get hier in
            (Partition.run_hier ~n_clusters ~hier ~seed ?eligible ~score ())
              .Partition.assignment
          end
        in
        match Slot_sched.run ~memo ~machine ~loop ~assignment () with
        | Ok sched -> Ok (sched, { ii; tries; mii })
        | Error _ -> attempt (ii + 1) (tries + 1))
  in
  attempt (max mii 1) 1
