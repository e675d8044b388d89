type unit_info = {
  u_cls : Classify.t;
  u_name : string;
  u_str : Typedtree.structure;
  u_uid_to_loc : Location.t Shape.Uid.Tbl.t;
  u_regions : Allow.region list;
}

type report = {
  fresh : Finding.t list;
  baselined : Finding.t list;
  unused_baseline : Baseline.entry list;
  files_scanned : int;
  allow_debt : (string * Allow.region list) list;
  baseline_total : int;
}

let build_root root =
  let candidate = Filename.concat (Filename.concat root "_build") "default" in
  if Sys.file_exists candidate && Sys.is_directory candidate then candidate else root

let ends_with ~suffix s =
  let n = String.length suffix in
  String.length s >= n && String.equal suffix (String.sub s (String.length s - n) n)

let find_cmts ~build_root ~dirs =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then begin
            (* .formatted holds ocamlformat shadow copies; lint_fixtures are
               the deliberately-buggy lint test inputs. Neither is repo code. *)
            if not (String.equal name ".formatted" || String.equal name "lint_fixtures")
            then walk path
          end
          else if ends_with ~suffix:".cmt" name then acc := path :: !acc)
        entries
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun d ->
      let path = Filename.concat build_root d in
      if Sys.file_exists path && Sys.is_directory path then walk path)
    dirs;
  List.sort String.compare !acc

let load_cmt ?(classify = Classify.of_source) path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | infos -> (
    match (infos.cmt_annots, infos.cmt_sourcefile) with
    | _, Some source when ends_with ~suffix:".ml-gen" source ->
      None (* dune wrapper module *)
    | Implementation str, source ->
      let source = match source with Some s -> s | None -> path in
      Some
        {
          u_cls = classify source;
          u_name = infos.cmt_modname;
          u_str = str;
          u_uid_to_loc = infos.cmt_uid_to_loc;
          u_regions = Allow.collect str;
        }
    | _ -> None)

(* Phase 2: intraprocedural rules per unit, then the graph families over the
   whole summary. Interprocedural findings are allow-filtered against the
   regions of the unit they are located in (by source path), so a
   [[@ntcu.allow "T003"]] or ["P001"] at the site works exactly like the
   D-rules' suppression. *)
let analyze units =
  let intra = List.concat_map (fun u -> Rules.run_all u.u_cls u.u_str) units in
  let g =
    Callgraph.build
      (List.map (fun u -> (u.u_cls, u.u_name, u.u_str, u.u_uid_to_loc)) units)
  in
  let regions_by_unit = Hashtbl.create 32 and regions_by_file = Hashtbl.create 32 in
  List.iter
    (fun u ->
      Hashtbl.replace regions_by_unit u.u_name u.u_regions;
      Hashtbl.replace regions_by_file u.u_cls.Classify.source u.u_regions)
    units;
  let allow_regions unit_name =
    match Hashtbl.find_opt regions_by_unit unit_name with Some r -> r | None -> []
  in
  let inter = Proto.check g @ Taint.check g ~allow_regions @ Escape.check g in
  let inter =
    List.filter
      (fun (f : Finding.t) ->
        match Hashtbl.find_opt regions_by_file f.file with
        | None -> true
        | Some regions -> (
          match Allow.filter regions [ f ] with [] -> false | _ -> true))
      inter
  in
  Rules.dedupe_sorted (intra @ inter)

let lint_cmt ?classify path =
  match load_cmt ?classify path with
  | None -> []
  | Some u -> Rules.run_all u.u_cls u.u_str

let run ?classify ?(dirs = [ "lib"; "bin" ]) ~baseline ~root () =
  let build_root = build_root root in
  let cmts = find_cmts ~build_root ~dirs in
  let units = List.filter_map (fun cmt -> load_cmt ?classify cmt) cmts in
  let findings = analyze units in
  let fresh, baselined = Baseline.partition baseline findings in
  let allow_debt =
    List.filter_map
      (fun u ->
        match u.u_regions with
        | [] -> None
        | regions -> Some (u.u_cls.Classify.source, regions))
      units
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    fresh;
    baselined;
    unused_baseline = Baseline.unused baseline findings;
    files_scanned = List.length units;
    allow_debt;
    baseline_total = List.length baselined + List.length (Baseline.unused baseline findings);
  }

let is_empty = function [] -> true | _ :: _ -> false

let pp_report ppf r =
  List.iter (fun f -> Fmt.pf ppf "%a@." Finding.pp f) r.fresh;
  if not (is_empty r.baselined) then
    Fmt.pf ppf "%d baselined finding%s suppressed@." (List.length r.baselined)
      (if List.length r.baselined = 1 then "" else "s");
  List.iter
    (fun (e : Baseline.entry) ->
      Fmt.pf ppf "warning: unused baseline entry %s %s:%d@." e.code e.file e.line)
    r.unused_baseline;
  if is_empty r.fresh then
    Fmt.pf ppf "ntcu-lint: clean (%d files scanned)@." r.files_scanned
  else
    Fmt.pf ppf "ntcu-lint: %d finding%s (%d files scanned)@." (List.length r.fresh)
      (if List.length r.fresh = 1 then "" else "s")
      r.files_scanned

let report_to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"ntcu-lint/2\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"files_scanned\": %d,\n" r.files_scanned);
  let finding_list key fs =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": [" key);
    List.iteri
      (fun i f ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf "\n    ";
        Buffer.add_string buf (Finding.to_json f))
      fs;
    if not (is_empty fs) then Buffer.add_string buf "\n  ";
    Buffer.add_string buf "]"
  in
  finding_list "findings" r.fresh;
  Buffer.add_string buf ",\n";
  finding_list "baselined" r.baselined;
  Buffer.add_string buf ",\n  \"unused_baseline\": [";
  List.iteri
    (fun i (e : Baseline.entry) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"code\": \"%s\", \"file\": \"%s\", \"line\": %d}"
           (Finding.json_escape e.code) (Finding.json_escape e.file) e.line))
    r.unused_baseline;
  if not (is_empty r.unused_baseline) then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

(* Suppression-debt report: every [@ntcu.allow] region by file with its line
   and codes, per-code totals, and the stale baseline entries. *)
let suppressions_to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"ntcu-lint-suppressions/1\",\n";
  let total =
    List.fold_left (fun n (_, regions) -> n + List.length regions) 0 r.allow_debt
  in
  Buffer.add_string buf (Printf.sprintf "  \"allow_regions\": %d,\n" total);
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (_, regions) ->
      List.iter
        (fun (reg : Allow.region) ->
          let keys = match reg.codes with [] -> [ "*" ] | codes -> codes in
          List.iter
            (fun c ->
              Hashtbl.replace counts c
                (1 + match Hashtbl.find_opt counts c with Some n -> n | None -> 0))
            keys)
        regions)
    r.allow_debt;
  let codes =
    (* key enumeration only; sorted on the next line *)
    List.sort String.compare
      ((Hashtbl.fold [@ntcu.allow "D002"]) (fun c _ acc -> c :: acc) counts [])
  in
  Buffer.add_string buf "  \"by_code\": {";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\": %d" (Finding.json_escape c) (Hashtbl.find counts c)))
    codes;
  Buffer.add_string buf "},\n  \"files\": [";
  List.iteri
    (fun i (file, regions) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"file\": \"%s\", \"regions\": [" (Finding.json_escape file));
      List.iteri
        (fun j (reg : Allow.region) ->
          if j > 0 then Buffer.add_string buf ", ";
          let codes_json =
            String.concat ", "
              (List.map (fun c -> Printf.sprintf "\"%s\"" (Finding.json_escape c)) reg.codes)
          in
          Buffer.add_string buf
            (Printf.sprintf "{\"line\": %d, \"codes\": [%s]}" reg.line codes_json))
        regions;
      Buffer.add_string buf "]}")
    r.allow_debt;
  if not (is_empty r.allow_debt) then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"baseline_entries\": %d,\n  \"stale_baseline\": [" r.baseline_total);
  List.iteri
    (fun i (e : Baseline.entry) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"code\": \"%s\", \"file\": \"%s\", \"line\": %d}"
           (Finding.json_escape e.code) (Finding.json_escape e.file) e.line))
    r.unused_baseline;
  if not (is_empty r.unused_baseline) then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

let exit_code ?(strict_baseline = false) r =
  if not (is_empty r.fresh) then 1
  else if strict_baseline && not (is_empty r.unused_baseline) then 2
  else 0
