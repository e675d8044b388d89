(* ntcu-lint: determinism & domain-safety static analyzer for the simulator.

   Two-phase: loads the .cmt typed trees dune produced for the target dirs,
   then evaluates the intraprocedural rules (D001-D005) per unit and the
   interprocedural families (P00x protocol soundness, T00x determinism
   taint, C00x domain escape) over a shared cross-module call graph — see
   lib/lint/*.mli. Exit code 1 on any finding not covered by the checked-in
   baseline or a per-site [@ntcu.allow "CODE"] annotation; exit code 2 when
   clean but --strict-baseline found stale baseline entries. *)

module Lint = Ntcu_lint

let () =
  let json = ref false in
  let out = ref "" in
  let root = ref "." in
  let dirs = ref "lib,bin" in
  let baseline_path = ref "lint_baseline.txt" in
  let no_baseline = ref false in
  let update_baseline = ref false in
  let report_suppressions = ref false in
  let suppressions_out = ref "" in
  let strict_baseline = ref false in
  let spec =
    [
      ("--json", Arg.Set json, " emit the report as JSON (schema ntcu-lint/2)");
      ("--out", Arg.Set_string out, "FILE write the report to FILE instead of stdout");
      ("--root", Arg.Set_string root, "DIR repo or build-context root (default .)");
      ( "--dirs",
        Arg.Set_string dirs,
        "D1,D2 comma-separated dirs to analyze (default lib,bin)" );
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE baseline of grandfathered findings (default lint_baseline.txt)" );
      ("--no-baseline", Arg.Set no_baseline, " ignore the baseline file");
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the baseline to cover every current finding, keeping notes" );
      ( "--report-suppressions",
        Arg.Set report_suppressions,
        " emit the suppression-debt JSON ([@ntcu.allow] regions, stale baseline)" );
      ( "--suppressions-out",
        Arg.Set_string suppressions_out,
        "FILE write the suppression-debt JSON to FILE (implies --report-suppressions)" );
      ( "--strict-baseline",
        Arg.Set strict_baseline,
        " fail (exit 2) when the baseline has stale entries" );
    ]
  in
  let usage =
    "ntcu-lint [options]\n\
     Determinism & domain-safety lint over dune-produced .cmt files.\n"
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let baseline_file =
    if Filename.is_relative !baseline_path then Filename.concat !root !baseline_path
    else !baseline_path
  in
  let baseline =
    if !no_baseline then Lint.Baseline.empty else Lint.Baseline.load baseline_file
  in
  let dirs =
    String.split_on_char ',' !dirs |> List.map String.trim
    |> List.filter (fun d -> d <> "")
  in
  let report = Lint.Engine.run ~dirs ~baseline ~root:!root () in
  if !update_baseline then begin
    let old = Lint.Baseline.load baseline_file in
    let oc = open_out baseline_file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          "# ntcu-lint baseline: grandfathered findings, one per line as `CODE file:line`.\n\
           # Each entry should carry a one-line justification after `#`.\n\
           # Regenerate with `ntcu-lint --update-baseline` (notes on surviving lines are kept).\n";
        List.iter
          (fun (f : Lint.Finding.t) ->
            let note =
              List.find_map
                (fun (e : Lint.Baseline.entry) ->
                  if
                    String.equal e.code f.code
                    && String.equal e.file f.file
                    && e.line = f.line
                    && not (String.equal e.note "")
                  then Some e.note
                  else None)
                (Lint.Baseline.unused old [])
            in
            let line = Lint.Baseline.line_of_finding f in
            match note with
            | Some note -> Printf.fprintf oc "%s  # %s\n" line note
            | None -> Printf.fprintf oc "%s  # TODO justify\n" line)
          (List.sort Lint.Finding.compare (report.fresh @ report.baselined)))
  end;
  if !report_suppressions || !suppressions_out <> "" then begin
    let body = Lint.Engine.suppressions_to_json report in
    match !suppressions_out with
    | "" -> print_string body
    | file ->
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body)
  end;
  let body =
    if !json then Lint.Engine.report_to_json report
    else Fmt.str "%a" Lint.Engine.pp_report report
  in
  (match !out with
  (* When the suppression report already went to stdout, keep stdout a
     single JSON document. *)
  | "" -> if not !report_suppressions then print_string body
  | file ->
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
    (* Keep the verdict visible even when the report goes to a file. *)
    Fmt.pr "ntcu-lint: %d finding(s), %d baselined, report written to %s@."
      (List.length report.fresh) (List.length report.baselined) file);
  exit (Lint.Engine.exit_code ~strict_baseline:!strict_baseline report)
