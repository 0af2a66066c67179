module Inject = Hcv_resilience.Inject

type stats = {
  entries : int;
  loaded : int;
  dropped : int;
  hits : int;
  misses : int;
}

type t = {
  dir : string option;
  warn : Hcv_obs.Diag.t -> unit;
  tbl : (string, string) Hashtbl.t;
  mutex : Mutex.t;
      (* workers store completed cells as soon as they finish (that is
         what makes a kill lose at most the cells in flight), so the
         table, the counters and the output channel are all guarded *)
  mutable loaded : int;
  mutable dropped : int;
  mutable hits : int;
  mutable misses : int;
  mutable out : out_channel option;
  mutable needs_newline : bool;
      (* the on-disk file ends mid-line (a previous run was killed
         while appending); start the next append on a fresh line so the
         new entry is not glued onto the truncated one *)
  mutable degraded : bool;
      (* the backing file became unwritable mid-run; keep memoising in
         memory only (warned once) *)
}

let file_name = "cache.jsonl"
let rej_file = "cache.rej"
let tmp_file = "cache.jsonl.tmp"

let in_memory () =
  {
    dir = None;
    warn = ignore;
    tbl = Hashtbl.create 64;
    mutex = Mutex.create ();
    loaded = 0;
    dropped = 0;
    hits = 0;
    misses = 0;
    out = None;
    needs_newline = false;
    degraded = false;
  }

(* v3 integrity field: CRC-32 over key \000 value. *)
let crc_payload k v = k ^ "\000" ^ v

let record_to_string k v =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("k", Jsonx.Str k);
         ("v", Jsonx.Str v);
         ("c", Jsonx.Str (Hcv_support.Crc32.hex (Hcv_support.Crc32.string (crc_payload k v))));
       ])

(* A line is good when it is a record with string "k"/"v" fields and,
   for v3 records, a matching "c" CRC.  v2 records (no "c") stay
   readable so an existing cache file round-trips. *)
let record =
  Decode.(
    obj "record"
      (let+ k = req "k" string
       and+ v = req "v" string
       and+ c = opt "c" string in
       (k, v, c)))

let entry_of_line line =
  match Decode.of_string record line with
  | Ok (k, v, None) -> Some (k, v)
  | Ok (k, v, Some c) when Hcv_support.Crc32.check_hex (crc_payload k v) c ->
    Some (k, v)
  | Ok _ | Error _ -> None

(* Quarantine a corrupt line: preserved verbatim in cache.rej for
   forensics, dropped from the live table.  Best-effort — quarantine
   failing must not make recovery worse. *)
let quarantine dir lines =
  if lines <> [] then
    try
      let oc =
        open_out_gen
          [ Open_append; Open_creat; Open_wronly ]
          0o644
          (Filename.concat dir rej_file)
      in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          List.iter
            (fun line ->
              output_string oc line;
              output_char oc '\n')
            lines)
    with Sys_error _ -> ()

let load t dir path =
  let ic = open_in_bin path in
  let first_bad = ref None in
  let bad_lines = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      try
        while true do
          let line = input_line ic in
          incr lineno;
          if String.trim line <> "" then
            match entry_of_line line with
            | Some (k, v) ->
              Hashtbl.replace t.tbl k v;
              t.loaded <- t.loaded + 1
            | None ->
              t.dropped <- t.dropped + 1;
              if !first_bad = None then first_bad := Some !lineno;
              bad_lines := line :: !bad_lines
        done
      with End_of_file -> ());
  quarantine dir (List.rev !bad_lines);
  if t.dropped > 0 then
    t.warn
      (Hcv_obs.Diag.v ~code:"cache-corrupt-lines"
         ~context:
           [
             ("file", path);
             ("loaded", string_of_int t.loaded);
             ("dropped", string_of_int t.dropped);
             ( "first_bad_line",
               match !first_bad with Some n -> string_of_int n | None -> "-" );
             ("quarantine", Filename.concat dir rej_file);
           ]
         "corrupt cache lines quarantined (cells will be recomputed)")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

let open_dir ?(warn = ignore) dir =
  let degrade msg =
    warn
      (Hcv_obs.Diag.v ~code:"cache-unwritable"
         ~context:[ ("dir", dir); ("error", msg) ]
         "cache directory unusable; degrading to in-memory (no checkpoints)");
    { (in_memory ()) with warn }
  in
  if Inject.fire ~key:dir Cache_open_fail then degrade "injected open failure"
  else
    match
      (fun () ->
        mkdir_p dir;
        let t = { (in_memory ()) with dir = Some dir; warn } in
        let path = Filename.concat dir file_name in
        if Sys.file_exists path then begin
          load t dir path;
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          if len > 0 then begin
            seek_in ic (len - 1);
            t.needs_newline <- input_char ic <> '\n'
          end;
          close_in_noerr ic
        end;
        t)
        ()
    with
    | t -> t
    | exception Sys_error msg -> degrade msg

let dir t = t.dir

let find t key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some v ->
        t.hits <- t.hits + 1;
        Some v
      | None ->
        t.misses <- t.misses + 1;
        None)

let demote_hit t =
  Mutex.protect t.mutex (fun () ->
      if t.hits > 0 then begin
        t.hits <- t.hits - 1;
        t.misses <- t.misses + 1
      end)

(* Called under the mutex: flush and close the append channel. *)
let release t =
  Option.iter close_out_noerr t.out;
  t.out <- None

let out_channel t dir =
  match t.out with
  | Some oc -> oc
  | None ->
    let oc =
      open_out_gen
        [ Open_append; Open_creat; Open_wronly ]
        0o644
        (Filename.concat dir file_name)
    in
    t.out <- Some oc;
    oc

(* Called under the mutex.  A write failure must not abort the sweep:
   the cache degrades to memory-only and warns once. *)
let append t dir ~key record =
  match
    (fun () ->
      let oc = out_channel t dir in
      if t.needs_newline then begin
        output_char oc '\n';
        t.needs_newline <- false
      end;
      if Inject.fire ~key Torn_write then begin
        (* Kill simulation: flush only a prefix of the record, exactly
           what an interrupted append leaves on disk.  The in-memory
           entry is intact; the torn tail is quarantined at the next
           open, and the next append starts on a fresh line. *)
        output_string oc
          (String.sub record 0 (max 1 (String.length record / 2)));
        flush oc;
        t.needs_newline <- true
      end
      else begin
        output_string oc record;
        output_char oc '\n';
        (* One flushed line per completed cell: a kill loses at most
           the cells in flight. *)
        flush oc
      end)
      ()
  with
  | () -> ()
  | exception Sys_error msg ->
    t.degraded <- true;
    release t;
    t.warn
      (Hcv_obs.Diag.v ~code:"cache-unwritable"
         ~context:[ ("dir", dir); ("error", msg) ]
         "cache append failed; degrading to in-memory (no checkpoints)")

let store t ~key value =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.replace t.tbl key value;
      match t.dir with
      | None -> ()
      | Some dir ->
        if not t.degraded then append t dir ~key (record_to_string key value))

let compact t =
  Mutex.protect t.mutex (fun () ->
      match t.dir with
      | None -> Ok 0
      | Some dir -> (
        let path = Filename.concat dir file_name in
        let tmp = Filename.concat dir tmp_file in
        (* The rename below replaces the file under the channel. *)
        release t;
        let keys =
          List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
        in
        match
          (fun () ->
            let oc = open_out_bin tmp in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                List.iter
                  (fun k ->
                    output_string oc (record_to_string k (Hashtbl.find t.tbl k));
                    output_char oc '\n')
                  keys;
                flush oc);
            if Inject.fire ~key:dir Rename_fail then
              raise (Sys_error "injected rename failure");
            Sys.rename tmp path;
            t.needs_newline <- false;
            List.length keys)
            ()
        with
        | n -> Ok n
        | exception Sys_error msg ->
          (try if Sys.file_exists tmp then Sys.remove tmp
           with Sys_error _ -> ());
          Error
            (Hcv_obs.Diag.v ~code:"compact-rename-failed"
               ~context:[ ("dir", dir); ("error", msg) ]
               "cache compaction aborted; the original file is untouched")))

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        entries = Hashtbl.length t.tbl;
        loaded = t.loaded;
        dropped = t.dropped;
        hits = t.hits;
        misses = t.misses;
      })

let close t = Mutex.protect t.mutex (fun () -> release t)
