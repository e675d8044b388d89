let table ~header ppf rows =
  let all = header :: rows in
  let columns = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make columns 0 in
  List.iter
    (List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell))
    all;
  let print_row row =
    List.iteri (fun i cell -> Fmt.pf ppf "%-*s  " widths.(i) cell) row;
    Fmt.pf ppf "@."
  in
  print_row header;
  print_row (List.mapi (fun i _ -> String.make widths.(i) '-') header);
  List.iter print_row rows

(* Rounded %f conversions below are fine: these printers are human-readable
   console output. Anything machine-consumed goes through [Json.float_repr],
   which round-trips every float. *)
let[@ntcu.allow "D005"] pp_join_run ppf (run : Experiment.join_run) =
  let j = Ntcu_std.Stats.of_ints run.join_noti in
  let cw = Ntcu_std.Stats.of_ints run.cp_wait in
  let d = (Ntcu_core.Network.params run.net).d in
  Fmt.pf ppf
    "|V| = %d, |W| = %d: %s, %s, %d messages@.\
     JoinNotiMsg per joiner: mean %.3f, median %.1f, p99 %.1f, max %.0f@.\
     CpRst+JoinWait per joiner: mean %.3f, max %.0f (Theorem 3 bound d+1 = %d)@."
    (List.length run.seeds) (List.length run.joiners)
    (if run.all_in_system && run.quiescent then "all in_system" else "LIVENESS FAILURE")
    (if Experiment.consistent run then "consistent"
     else Printf.sprintf "%d VIOLATIONS" (List.length (Lazy.force run.violations)))
    run.events (Ntcu_std.Stats.mean j) (Ntcu_std.Stats.median j)
    (Ntcu_std.Stats.percentile j 99.)
    (snd (Ntcu_std.Stats.min_max j))
    (Ntcu_std.Stats.mean cw)
    (snd (Ntcu_std.Stats.min_max cw))
    (d + 1)

let pp_fault_run ppf (f : Experiment.fault_run) =
  let g = Ntcu_core.Network.global_stats f.run.net in
  Fmt.pf ppf
    "%a  crashed %d, stuck %d; transport: %d first sends, %d total sends, %d lost, %d \
     ack losses, %d retransmissions, %d timeouts, %d failovers, %d duplicates \
     suppressed@."
    pp_join_run f.run (List.length f.crashed) f.stuck
    (Ntcu_core.Stats.first_sends g)
    (Ntcu_core.Stats.total_sends g)
    f.lost f.acks_lost f.retransmissions f.timeouts f.failovers f.duplicates;
  match f.repair with
  | Some r -> Fmt.pf ppf "online repair: %a@." Ntcu_extensions.Online_repair.pp_report r
  | None -> ()

let[@ntcu.allow "D005"] pp_fig15a_curve ~label ppf points =
  Fmt.pf ppf "# %s@." label;
  List.iter (fun (n, bound) -> Fmt.pf ppf "%8d  %.3f@." n bound) points

let[@ntcu.allow "D005"] pp_cdf ~label ppf points =
  Fmt.pf ppf "# %s@." label;
  List.iter (fun (v, frac) -> Fmt.pf ppf "%6d  %.4f@." v frac) points

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* %.17g round-trips every float; JSON has no NaN/infinity, so map those to
     null rather than emit unparseable output. *)
  let float_repr f =
    match Float.classify_float f with
    | FP_nan | FP_infinite -> "null"
    | _ ->
      let s = Printf.sprintf "%.17g" f in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

  let rec pp ppf = function
    | Null -> Fmt.string ppf "null"
    | Bool b -> Fmt.string ppf (if b then "true" else "false")
    | Int i -> Fmt.pf ppf "%d" i
    | Float f -> Fmt.string ppf (float_repr f)
    | String s -> Fmt.pf ppf "\"%s\"" (escape s)
    | List items ->
      Fmt.pf ppf "@[<hv 2>[@,%a@;<0 -2>]@]"
        (Fmt.list ~sep:(Fmt.any ",@,") pp)
        items
    | Obj fields ->
      Fmt.pf ppf "@[<hv 2>{@,%a@;<0 -2>}@]"
        (Fmt.list ~sep:(Fmt.any ",@,") (fun ppf (k, v) ->
             Fmt.pf ppf "@[<h>\"%s\": %a@]" (escape k) pp v))
        fields

  let to_string t = Fmt.str "%a" pp t

  let to_file path t =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string t ^ "\n"))
end

let[@ntcu.allow "D005"] pp_avg_vs_bound ppf rows =
  table
    ~header:[ "setup"; "measured avg J"; "Theorem-5 bound"; "paper avg J" ]
    ppf
    (List.map
       (fun (label, avg, bound, paper) ->
         [ label; Printf.sprintf "%.3f" avg; Printf.sprintf "%.3f" bound; Printf.sprintf "%.3f" paper ])
       rows)
