(* Cross-module call graph over the dune-produced .cmt set.

   Phase 1 of the analyzer (see Engine): every compilation unit contributes
   its module-level value definitions and the references inside their
   bodies. Resolution is uid-first: OCaml >= 5.1 stamps each module-level
   declaration with a Shape.Uid ([Item {comp_unit; id}]) recorded in the
   cmt's [cmt_uid_to_loc] table, and every [Texp_ident] carries the uid of
   the value it denotes — so a cross-module reference resolves exactly,
   through dune's module wrapping, without name guessing.

   Three mechanisms extend the graph beyond direct uid resolution:

   - Functor instantiation: a call through a functor parameter ([P.f] inside
     [F (P : S)]) has no definition uid. For every recorded application
     [module M = F (Arg)], such calls gain edges to [Arg]'s matching defs.
     The approximation is per-functor, not per-instance: with two
     applications F(A) and F(B), a body call [P.f] points at both A.f and
     B.f — a sound over-approximation for reachability rules.
   - First-class modules: [(module Impl : S)] ([Texp_pack]) adds edges from
     the packing def to every def of the packed module, and a later call
     through an unpacked module ([M.f] where the uid resolves into a scanned
     unit's signature rather than a def) falls back to the defs named [f] of
     every packed module — the dynamic-dispatch over-approximation for
     [Protocol.S]-style plugin registries.
   - Module aliases and applications: [module M = F (Arg)] calls [M.g]
     resolve into [F]'s body defs by name.

   Unresolved references (Stdlib, external libraries, functor params with no
   recorded application) are kept as [ext] records; rules pattern-match
   their path names ("Hashtbl.iter", "Engine.cancel", ...) the same way the
   intraprocedural rules do. *)

type def = {
  uid : string;  (* global key, e.g. "Ntcu_core__Codec.12" *)
  name : string;
  qual : string;  (* module-path-qualified within the unit, e.g. "Codec.encode_frames" *)
  unit_name : string;
  cls : Classify.t;
  loc : Location.t;
  body : Typedtree.expression;
}

type call = { target : string; site : Location.t }
type ext = { ext_name : string; ext_site : Location.t }

let def_ofs d = d.loc.Location.loc_start.Lexing.pos_cnum

let compare_def a b =
  let c = String.compare a.cls.Classify.source b.cls.Classify.source in
  if c <> 0 then c
  else
    let c = Int.compare (def_ofs a) (def_ofs b) in
    if c <> 0 then c else String.compare a.uid b.uid

(* ---- per-unit extraction ------------------------------------------------ *)

type raw_use = { u_uid : string option; u_path : Path.t; u_site : Location.t }

type raw_def = {
  r_def : def;
  r_stamp : string option;  (* Ident.unique_name of the binder, for Pident resolution *)
  r_functor : string option;  (* qual of the enclosing functor, if any *)
  r_uses : raw_use list;
  r_packs : (string * Location.t) list;  (* packed module path names *)
}

type functor_info = { f_qual : string; f_param : string option }

type unit_acc = {
  a_unit : string;
  mutable a_defs : raw_def list;
  mutable a_functors : functor_info list;
  (* module-binding qual -> `Apply (functor path name, arg path name)
     or `Alias (module path name) *)
  mutable a_mods : (string * [ `Apply of string * string | `Alias of string ]) list;
}

let uid_to_string uid = Format.asprintf "%a" Shape.Uid.print uid

let collect_uses (e : Typedtree.expression) =
  let uses = ref [] and packs = ref [] in
  let open Tast_iterator in
  let expr sub (e' : Typedtree.expression) =
    (match e'.exp_desc with
    | Texp_ident (path, _, vd) ->
      uses :=
        { u_uid = Some (uid_to_string vd.val_uid); u_path = path; u_site = e'.exp_loc }
        :: !uses
    | Texp_pack me -> (
      match me.mod_desc with
      | Tmod_ident (p, _) -> packs := (Path.name p, e'.exp_loc) :: !packs
      | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
        packs := (Path.name p, e'.exp_loc) :: !packs
      | _ -> ())
    | _ -> ());
    default_iterator.expr sub e'
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  (List.rev !uses, List.rev !packs)

(* The use's uid belongs to the value the typechecker resolved, so the uid of
   a reference to [vd.val_uid] is authoritative; the path is kept for Pident
   fallback and for external-name matching. *)

let pattern_binders (p : Typedtree.pattern) =
  let acc = ref [] in
  let rec go (p : Typedtree.pattern) =
    match p.pat_desc with
    | Tpat_var (id, name) -> acc := (id, name.txt, name.loc) :: !acc
    | Tpat_alias (p', id, name) ->
      acc := (id, name.txt, name.loc) :: !acc;
      go p'
    | Tpat_tuple ps | Tpat_construct (_, _, ps, _) | Tpat_array ps -> List.iter go ps
    | Tpat_record (fields, _) -> List.iter (fun (_, _, p') -> go p') fields
    | Tpat_or (a, b, _) ->
      go a;
      go b
    | Tpat_lazy p' | Tpat_variant (_, Some p', _) -> go p'
    | _ -> ()
  in
  go p;
  List.rev !acc

let scan_unit ~cls ~unit_name ~(uid_to_loc : Location.t Shape.Uid.Tbl.t)
    (str : Typedtree.structure) =
  let acc = { a_unit = unit_name; a_defs = []; a_functors = []; a_mods = [] } in
  (* uid by start offset of the declaration's name location *)
  let uid_at = Hashtbl.create 64 in
  (* keyed replace into a fresh table: one uid per name location, so the
     visit order of the source table cannot change the result *)
  (Shape.Uid.Tbl.iter [@ntcu.allow "D002"])
    (fun uid loc ->
      Hashtbl.replace uid_at loc.Location.loc_start.Lexing.pos_cnum (uid_to_string uid))
    uid_to_loc;
  let fresh = ref 0 in
  let add_def ?stamp ?enclosing_functor ~qual_prefix ~name ~name_loc ~loc body =
    let uid =
      match Hashtbl.find_opt uid_at name_loc.Location.loc_start.Lexing.pos_cnum with
      | Some u -> u
      | None ->
        incr fresh;
        Printf.sprintf "%s#%d.%d" unit_name name_loc.Location.loc_start.Lexing.pos_cnum
          !fresh
    in
    let qual = if qual_prefix = "" then name else qual_prefix ^ "." ^ name in
    let uses, packs = collect_uses body in
    acc.a_defs <-
      {
        r_def = { uid; name; qual; unit_name; cls; loc; body };
        r_stamp = stamp;
        r_functor = enclosing_functor;
        r_uses = uses;
        r_packs = packs;
      }
      :: acc.a_defs
  in
  let rec items ~qual_prefix ~enclosing_functor its =
    List.iter (fun it -> item ~qual_prefix ~enclosing_functor it) its
  and item ~qual_prefix ~enclosing_functor (si : Typedtree.structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match pattern_binders vb.vb_pat with
          | [] ->
            (* [let () = ...]: keep the body as an anonymous def so its
               references still participate in the graph. *)
            add_def ?enclosing_functor ~qual_prefix ~name:"_" ~name_loc:vb.vb_loc
              ~loc:vb.vb_loc vb.vb_expr
          | binders ->
            List.iter
              (fun (id, name, name_loc) ->
                add_def ~stamp:(Ident.unique_name id) ?enclosing_functor ~qual_prefix ~name
                  ~name_loc ~loc:name_loc vb.vb_expr)
              binders)
        vbs
    | Tstr_module mb -> module_binding ~qual_prefix ~enclosing_functor mb
    | Tstr_recmodule mbs ->
      List.iter (fun mb -> module_binding ~qual_prefix ~enclosing_functor mb) mbs
    | Tstr_include incl -> module_expr ~qual_prefix ~enclosing_functor incl.incl_mod
    | _ -> ()
  and module_binding ~qual_prefix ~enclosing_functor (mb : Typedtree.module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let qual = if qual_prefix = "" then name else qual_prefix ^ "." ^ name in
    named_module_expr ~qual ~enclosing_functor mb.mb_expr
  and named_module_expr ~qual ~enclosing_functor (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> items ~qual_prefix:qual ~enclosing_functor str.str_items
    | Tmod_constraint (me', _, _, _) -> named_module_expr ~qual ~enclosing_functor me'
    | Tmod_functor (param, body) ->
      let param_name =
        match param with
        | Named (_, { txt = Some n; _ }, _) -> Some n
        | Named (_, { txt = None; _ }, _) | Unit -> None
      in
      acc.a_functors <- { f_qual = qual; f_param = param_name } :: acc.a_functors;
      named_module_expr ~qual ~enclosing_functor:(Some qual) body
    | Tmod_apply (f, arg, _) -> (
      match (module_path f, module_path arg) with
      | Some fp, Some ap -> acc.a_mods <- (qual, `Apply (fp, ap)) :: acc.a_mods
      | _ -> ())
    | Tmod_ident (p, _) -> acc.a_mods <- (qual, `Alias (Path.name p)) :: acc.a_mods
    | _ -> ()
  and module_expr ~qual_prefix ~enclosing_functor (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> items ~qual_prefix ~enclosing_functor str.str_items
    | Tmod_constraint (me', _, _, _) -> module_expr ~qual_prefix ~enclosing_functor me'
    | _ -> ()
  and module_path (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some (Path.name p)
    | Tmod_constraint (me', _, _, _) -> module_path me'
    | _ -> None
  in
  items ~qual_prefix:"" ~enclosing_functor:None str.str_items;
  acc.a_defs <- List.rev acc.a_defs;
  acc.a_functors <- List.rev acc.a_functors;
  acc.a_mods <- List.rev acc.a_mods;
  acc

(* ---- the graph ---------------------------------------------------------- *)

type t = {
  by_uid : (string, def) Hashtbl.t;
  all_defs : def list;  (* sorted by compare_def *)
  calls : (string, call list) Hashtbl.t;
  exts : (string, ext list) Hashtbl.t;
}

let last_component s =
  match String.rindex_opt s '.' with
  | None -> s
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)

(* "Ntcu_core__Codec" -> "Ntcu_core.Codec": dune's wrapped-module alias. *)
let dotted_unit u =
  let buf = Buffer.create (String.length u) in
  let n = String.length u in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && u.[!i] = '_' && u.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf u.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let build units =
  let accs =
    List.map
      (fun (cls, unit_name, str, uid_to_loc) -> scan_unit ~cls ~unit_name ~uid_to_loc str)
      units
  in
  let by_uid = Hashtbl.create 512 in
  let by_stamp = Hashtbl.create 512 in
  (* module key -> defs directly inside that module *)
  let module_index = Hashtbl.create 128 in
  let scanned_units = Hashtbl.create 32 in
  let add_module_key key d =
    if not (String.equal key "") then
      Hashtbl.replace module_index key
        (d :: (match Hashtbl.find_opt module_index key with Some l -> l | None -> []))
  in
  List.iter
    (fun a ->
      Hashtbl.replace scanned_units a.a_unit ();
      List.iter
        (fun rd ->
          let d = rd.r_def in
          Hashtbl.replace by_uid d.uid d;
          (match rd.r_stamp with
          | Some s -> Hashtbl.replace by_stamp (a.a_unit, s) d.uid
          | None -> ());
          let mod_path =
            match String.rindex_opt d.qual '.' with
            | None -> ""
            | Some i -> String.sub d.qual 0 i
          in
          let unit_keys = [ a.a_unit; dotted_unit a.a_unit; last_component (dotted_unit a.a_unit) ] in
          List.iter
            (fun uk ->
              if mod_path = "" then add_module_key uk d
              else add_module_key (uk ^ "." ^ mod_path) d)
            unit_keys;
          if mod_path <> "" then begin
            add_module_key mod_path d;
            add_module_key (last_component mod_path) d
          end)
        a.a_defs)
    accs;
  let module_defs name =
    match Hashtbl.find_opt module_index name with
    | Some l -> l
    | None -> (
      match Hashtbl.find_opt module_index (last_component name) with
      | Some l -> l
      | None -> [])
  in
  (* functor qual (and aliases) -> info + body defs *)
  let functor_index = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (fun (fi : functor_info) ->
          let body =
            List.filter (fun rd -> rd.r_functor = Some fi.f_qual) a.a_defs
            |> List.map (fun rd -> rd.r_def)
          in
          List.iter
            (fun key -> Hashtbl.replace functor_index key (fi, body))
            [ a.a_unit ^ "." ^ fi.f_qual; dotted_unit a.a_unit ^ "." ^ fi.f_qual;
              fi.f_qual; last_component fi.f_qual ])
        a.a_functors)
    accs;
  (* applications: functor -> argument module names it was applied to *)
  let applications = Hashtbl.create 16 in
  (* module-binding qual (unit-qualified and bare) -> resolution *)
  let mod_bindings = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (fun (qual, res) ->
          (match res with
          | `Apply (fp, ap) -> (
            match Hashtbl.find_opt functor_index fp with
            | Some (fi, _) ->
              Hashtbl.replace applications fi.f_qual
                (ap
                :: (match Hashtbl.find_opt applications fi.f_qual with
                   | Some l -> l
                   | None -> []))
            | None -> ())
          | `Alias _ -> ());
          List.iter
            (fun key -> Hashtbl.replace mod_bindings key res)
            [ a.a_unit ^ "." ^ qual; qual ])
        a.a_mods)
    accs;
  (* packed modules, program-wide: the first-class dispatch fallback set *)
  let packed_modules = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun rd -> List.iter (fun (m, _) -> packed_modules := m :: !packed_modules) rd.r_packs)
        a.a_defs)
    accs;
  let packed_defs_named name =
    List.concat_map
      (fun m -> List.filter (fun d -> String.equal d.name name) (module_defs m))
      (List.sort_uniq String.compare !packed_modules)
  in
  (* ---- edge resolution ---- *)
  let calls = Hashtbl.create 512 and exts = Hashtbl.create 512 in
  let add_call src target site =
    Hashtbl.replace calls src
      ({ target; site }
      :: (match Hashtbl.find_opt calls src with Some l -> l | None -> []))
  in
  let add_ext src ext_name ext_site =
    Hashtbl.replace exts src
      ({ ext_name; ext_site }
      :: (match Hashtbl.find_opt exts src with Some l -> l | None -> []))
  in
  let resolve_use a (rd : raw_def) (u : raw_use) =
    let src = rd.r_def.uid in
    let resolved_by_uid =
      match u.u_uid with
      | Some us when Hashtbl.mem by_uid us ->
        add_call src us u.u_site;
        true
      | _ -> false
    in
    if not resolved_by_uid then begin
      let resolved_local =
        match u.u_path with
        | Path.Pident id -> (
          match Hashtbl.find_opt by_stamp (a.a_unit, Ident.unique_name id) with
          | Some uid ->
            add_call src uid u.u_site;
            true
          | None -> false)
        | _ -> false
      in
      if not resolved_local then begin
        let name = Path.name u.u_path in
        (* Calls through an applied-functor module: [module M = F(Arg)] then
           [M.g] resolves to F's body def g. *)
        let resolved_app =
          match u.u_path with
          | Path.Pdot (m, f) -> (
            let mname = Path.name m in
            let lookup =
              match Hashtbl.find_opt mod_bindings (a.a_unit ^ "." ^ mname) with
              | Some r -> Some r
              | None -> Hashtbl.find_opt mod_bindings mname
            in
            match lookup with
            | Some (`Apply (fp, _)) -> (
              match Hashtbl.find_opt functor_index fp with
              | Some (_, body) -> (
                match List.find_opt (fun d -> String.equal d.name f) body with
                | Some d ->
                  add_call src d.uid u.u_site;
                  true
                | None -> false)
              | None -> false)
            | Some (`Alias target) -> (
              match
                List.find_opt
                  (fun d -> String.equal d.name f)
                  (module_defs target)
              with
              | Some d ->
                add_call src d.uid u.u_site;
                true
              | None -> false)
            | None -> false)
          | _ -> false
        in
        (* A use through the enclosing functor's own parameter is handled by
           the per-application pass below; letting it hit the first-class
           fallback would link it to every packed module. *)
        let functor_param_use =
          match rd.r_functor with
          | Some fq -> (
            match
              List.find_opt
                (fun (fi : functor_info) -> String.equal fi.f_qual fq)
                a.a_functors
            with
            | Some { f_param = Some p; _ } ->
              let prefix = p ^ "." in
              String.length name > String.length prefix
              && String.equal (String.sub name 0 (String.length prefix)) prefix
            | _ -> false)
          | None -> false
        in
        if not resolved_app && not functor_param_use then begin
          (* First-class fallback: the uid points into a scanned unit (a
             signature item, e.g. Protocol.S's val) but is not a def — link
             to every packed implementation with a matching name. *)
          let in_scanned =
            match u.u_uid with
            | Some _ -> (
              match u.u_path with
              | Path.Pdot _ -> (
                match
                  List.find_opt
                    (fun acc' ->
                      match u.u_uid with
                      | Some us ->
                        String.length us > String.length acc'.a_unit
                        && String.sub us 0 (String.length acc'.a_unit) = acc'.a_unit
                        && us.[String.length acc'.a_unit] = '.'
                      | None -> false)
                    accs
                with
                | Some _ -> true
                | None -> false)
              | _ -> false)
            | None -> false
          in
          let fallback_targets =
            if in_scanned then packed_defs_named (last_component name) else []
          in
          if not (List.is_empty fallback_targets) then
            List.iter (fun d -> add_call src d.uid u.u_site) fallback_targets
          else add_ext src name u.u_site
        end
      end
    end
  in
  List.iter (fun a -> List.iter (fun rd -> List.iter (resolve_use a rd) rd.r_uses) a.a_defs) accs;
  (* Functor-parameter fallback: for F's body defs, [P.f] gains edges to the
     matching defs of every module F was applied to. *)
  List.iter
    (fun a ->
      List.iter
        (fun (fi : functor_info) ->
          match (fi.f_param, Hashtbl.find_opt applications fi.f_qual) with
          | Some p, Some args ->
            let prefix = p ^ "." in
            List.iter
              (fun rd ->
                if rd.r_functor = Some fi.f_qual then
                  List.iter
                    (fun (e : raw_use) ->
                      let name = Path.name e.u_path in
                      if
                        String.length name > String.length prefix
                        && String.sub name 0 (String.length prefix) = prefix
                        && not (Hashtbl.mem by_uid (Option.value ~default:"" e.u_uid))
                      then
                        let f = last_component name in
                        List.iter
                          (fun arg ->
                            List.iter
                              (fun d ->
                                if String.equal d.name f then
                                  add_call rd.r_def.uid d.uid e.u_site)
                              (module_defs arg))
                          (List.sort_uniq String.compare args))
                    rd.r_uses)
              a.a_defs
          | _ -> ())
        a.a_functors)
    accs;
  (* Pack edges: the packing def reaches everything the packed module defines. *)
  List.iter
    (fun a ->
      List.iter
        (fun rd ->
          List.iter
            (fun (m, site) ->
              List.iter (fun d -> add_call rd.r_def.uid d.uid site) (module_defs m))
            rd.r_packs)
        a.a_defs)
    accs;
  (* Deterministic adjacency: sort, dedupe. *)
  let sort_calls l =
    List.sort_uniq
      (fun a b ->
        let c = String.compare a.target b.target in
        if c <> 0 then c
        else
          Int.compare a.site.Location.loc_start.Lexing.pos_cnum
            b.site.Location.loc_start.Lexing.pos_cnum)
      l
  in
  (* per-key in-place normalization: the fold only enumerates keys, and each
     key's adjacency list is sorted independently *)
  let keys tbl = (Hashtbl.fold [@ntcu.allow "D002"]) (fun k _ acc -> k :: acc) tbl [] in
  List.iter (fun k -> Hashtbl.replace calls k (sort_calls (Hashtbl.find calls k))) (keys calls);
  List.iter
    (fun k ->
      Hashtbl.replace exts k
        (List.sort
           (fun a b ->
             let c =
               Int.compare a.ext_site.Location.loc_start.Lexing.pos_cnum
                 b.ext_site.Location.loc_start.Lexing.pos_cnum
             in
             if c <> 0 then c else String.compare a.ext_name b.ext_name)
           (Hashtbl.find exts k)))
    (keys exts);
  let all_defs =
    List.sort compare_def
      (List.concat_map (fun a -> List.map (fun rd -> rd.r_def) a.a_defs) accs)
  in
  { by_uid; all_defs; calls; exts }

(* ---- queries ------------------------------------------------------------ *)

let defs t = t.all_defs

let defs_in_unit t unit_name =
  List.filter (fun d -> String.equal d.unit_name unit_name) t.all_defs

let find t uid = Hashtbl.find_opt t.by_uid uid

let ends_with ~suffix s =
  let n = String.length suffix in
  String.length s >= n && String.equal suffix (String.sub s (String.length s - n) n)

let find_qual t q =
  List.filter
    (fun d ->
      let full = dotted_unit d.unit_name ^ "." ^ d.qual in
      String.equal d.qual q || ends_with ~suffix:("." ^ q) full)
    t.all_defs

let calls_of t d = match Hashtbl.find_opt t.calls d.uid with Some l -> l | None -> []
let exts_of t d = match Hashtbl.find_opt t.exts d.uid with Some l -> l | None -> []

let reachable t ~roots =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun d ->
      if not (Hashtbl.mem seen d.uid) then begin
        Hashtbl.replace seen d.uid ();
        Queue.push d queue
      end)
    roots;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let d = Queue.pop queue in
    out := d :: !out;
    List.iter
      (fun c ->
        if not (Hashtbl.mem seen c.target) then begin
          Hashtbl.replace seen c.target ();
          match find t c.target with Some d' -> Queue.push d' queue | None -> ()
        end)
      (calls_of t d)
  done;
  List.sort compare_def !out

let path t ~from ~dest =
  if dest from then Some ([], from)
  else begin
    let pred = Hashtbl.create 64 in
    let queue = Queue.create () in
    Hashtbl.replace pred from.uid None;
    Queue.push from queue;
    let found = ref None in
    while Option.is_none !found && not (Queue.is_empty queue) do
      let d = Queue.pop queue in
      List.iter
        (fun c ->
          if Option.is_none !found && not (Hashtbl.mem pred c.target) then begin
            match find t c.target with
            | Some d' ->
              Hashtbl.replace pred d'.uid (Some (d, c.site));
              if dest d' then found := Some d' else Queue.push d' queue
            | None -> ()
          end)
        (calls_of t d)
    done;
    match !found with
    | None -> None
    | Some target ->
      let rec unwind acc uid =
        match Hashtbl.find pred uid with
        | None -> acc
        | Some (d, site) -> unwind ((d, site) :: acc) d.uid
      in
      Some (unwind [] target.uid, target)
  end

let dotted = dotted_unit
let full_name d = dotted_unit d.unit_name ^ "." ^ d.qual

(* A readable per-hop trace: each step names the caller and what it calls
   next, so the final hop's text points at the step after it. *)
let trace t ~from ~dest =
  match path t ~from ~dest with
  | None -> None
  | Some (steps, target) ->
    let rec annotate = function
      | [] -> []
      | [ ((d : def), site) ] ->
        [
          Finding.step ~file:d.cls.Classify.source ~loc:site
            (Printf.sprintf "%s.%s calls %s.%s" d.unit_name d.qual target.unit_name
               target.qual);
        ]
      | ((d : def), site) :: (((d2 : def), _) :: _ as rest) ->
        Finding.step ~file:d.cls.Classify.source ~loc:site
          (Printf.sprintf "%s.%s calls %s.%s" d.unit_name d.qual d2.unit_name d2.qual)
        :: annotate rest
    in
    Some (annotate steps, target)
