(* T-rules: determinism taint (interprocedural D002/D003/D005).

   A nondeterminism source — unordered Hashtbl iteration, ambient
   wall-clock/Random reads, Domain.self, lossy float formatting — is only a
   local style hazard until its value can reach diffed output. This pass
   flows sources through the call graph to the output sinks: every def of an
   emitter unit (Report/trace/codec/repro, {!Classify.t.emitter}). A source
   inside a def reachable from an emitter def gets a T-finding carrying the
   emitter-to-source call chain as its trace.

   Neutralization: an [[@ntcu.allow]] region covering the source site for
   either the T-code or the corresponding D-code justifies the source — one
   visible annotation covers both the local and interprocedural form. This
   matters for D003 in particular: [Classify.clock_allowed] scopes the local
   rule out of harness and test code, but a clock read there that flows
   into an emitter is still flagged (T003) until annotated. *)

type source = {
  s_code : string;  (* T-code *)
  s_dcode : string;  (* neutralizing D-counterpart *)
  s_loc : Location.t;
  s_what : string;
}

let ends_with ~suffix s =
  let n = String.length suffix in
  String.length s >= n && String.equal suffix (String.sub s (String.length s - n) n)

let t003_extra name = ends_with ~suffix:"Domain.self" name

let d005_sites (body : Typedtree.expression) =
  let acc = ref [] in
  let open Tast_iterator in
  let expr sub e =
    if Rules.d005_site e then acc := e.Typedtree.exp_loc :: !acc;
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  it.expr it body;
  List.rev !acc

let sources_of_def g (d : Callgraph.def) =
  let from_exts =
    List.filter_map
      (fun (e : Callgraph.ext) ->
        if Rules.d002_targets e.ext_name then
          Some { s_code = "T002"; s_dcode = "D002"; s_loc = e.ext_site; s_what = e.ext_name }
        else if Rules.d003_target e.ext_name || t003_extra e.ext_name then
          Some { s_code = "T003"; s_dcode = "D003"; s_loc = e.ext_site; s_what = e.ext_name }
        else None)
      (Callgraph.exts_of g d)
  in
  let from_floats =
    List.map
      (fun loc ->
        { s_code = "T005"; s_dcode = "D005"; s_loc = loc; s_what = "lossy float formatting" })
      (d005_sites d.body)
  in
  from_exts @ from_floats

let neutralized ~regions (s : source) =
  let ofs = s.s_loc.Location.loc_start.Lexing.pos_cnum in
  List.exists
    (fun (r : Allow.region) ->
      ofs >= r.start_ofs && ofs <= r.end_ofs
      && (Allow.allows r s.s_code || Allow.allows r s.s_dcode))
    regions

let message (s : source) ~(sink : Callgraph.def) =
  let sink_name = Callgraph.full_name sink in
  match s.s_code with
  | "T002" ->
    Printf.sprintf
      "unordered %s feeds emitter %s: iteration order can leak into diffed output (interprocedural D002); sort the keys or annotate the site"
      s.s_what sink_name
  | "T003" ->
    Printf.sprintf
      "ambient nondeterminism %s reaches emitter %s (interprocedural D003); thread an Rng/clock or annotate the site"
      s.s_what sink_name
  | _ ->
    Printf.sprintf
      "lossy float formatting reaches emitter %s (interprocedural D005); use %%h or %%.17g so equal text means equal floats"
      sink_name

let check g ~allow_regions =
  let emitters =
    List.filter (fun (d : Callgraph.def) -> d.cls.Classify.emitter) (Callgraph.defs g)
  in
  if List.is_empty emitters then []
  else begin
    let reach = Callgraph.reachable g ~roots:emitters in
    List.concat_map
      (fun (d : Callgraph.def) ->
        let regions = allow_regions d.unit_name in
        let srcs =
          List.filter (fun s -> not (neutralized ~regions s)) (sources_of_def g d)
        in
        List.filter_map
          (fun s ->
            let dest (d' : Callgraph.def) = String.equal d'.uid d.uid in
            let rec first = function
              | [] -> None
              | e :: rest -> (
                match Callgraph.trace g ~from:e ~dest with
                | Some (steps, _) -> Some (e, steps)
                | None -> first rest)
            in
            match first emitters with
            | None -> None
            | Some (sink, steps) ->
              let steps =
                match steps with
                | [] ->
                  [
                    Finding.step ~file:d.cls.Classify.source ~loc:d.loc
                      (Printf.sprintf "source is inside emitter def %s"
                         (Callgraph.full_name d));
                  ]
                | _ :: _ -> steps
              in
              let trace =
                steps
                @ [
                    Finding.step ~file:d.cls.Classify.source ~loc:s.s_loc
                      (Printf.sprintf "%s here" s.s_what);
                  ]
              in
              Some
                (Finding.make ~trace ~code:s.s_code ~file:d.cls.Classify.source
                   ~loc:s.s_loc (message s ~sink)))
          srcs)
      reach
  end
