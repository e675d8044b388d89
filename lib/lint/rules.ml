type rule = {
  code : string;
  title : string;
  check : Classify.t -> Typedtree.structure -> Finding.t list;
}

let finding ~code ~(cls : Classify.t) ~loc fmt =
  Printf.ksprintf (fun message -> Finding.make ~code ~file:cls.source ~loc message) fmt

let path_name p = Path.name p

let ends_with ~suffix s =
  let n = String.length suffix in
  String.length s >= n && String.equal suffix (String.sub s (String.length s - n) n)

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.equal prefix (String.sub s 0 n)

let string_of_type ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception _ -> "<type>"

(* Iterate expressions of a structure with the default deep traversal. *)
let iter_exprs str f =
  let open Tast_iterator in
  let expr sub e =
    f e;
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  it.structure it str

(* ---- D001: polymorphic compare at abstract types ------------------------ *)

(* Types on which the polymorphic operations are structurally meaningful and
   representation-stable: immediate/base types and containers thereof. A type
   variable means the surrounding code is itself generic — the hazard, if
   any, is at its instantiation site, not here. Everything else (abstract
   types, records, variants, functions, objects) is flagged. *)
let rec comparable_ty ty =
  match Types.get_desc ty with
  | Tvar _ | Tunivar _ -> true
  | Ttuple parts -> List.for_all comparable_ty parts
  | Tpoly (t, _) -> comparable_ty t
  | Tconstr (p, args, _) ->
    let base =
      List.exists (Path.same p)
        Predef.
          [
            path_int;
            path_char;
            path_string;
            path_bytes;
            path_bool;
            path_unit;
            path_float;
            path_nativeint;
            path_int32;
            path_int64;
            path_floatarray;
          ]
    in
    let container =
      List.exists (Path.same p) Predef.[ path_option; path_list; path_array ]
    in
    (base || container) && List.for_all comparable_ty args
  | _ -> false

let poly_ops = [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.Hashtbl.hash" ]

let rec first_arrow_arg ty =
  match Types.get_desc ty with
  | Tarrow (_, a, _, _) -> Some a
  | Tpoly (t, _) -> first_arrow_arg t
  | _ -> None

let head_is_option ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> Path.same p Predef.path_option
  | _ -> false

let d001_check (cls : Classify.t) str =
  (* Polymorphic equality on concrete variants is idiomatic in unit-test
     assertions; the hazard D001 guards against — representation-dependent
     comparison inside the protocol — does not apply there. *)
  if cls.in_test then []
  else begin
  let acc = ref [] in
  iter_exprs str (fun e ->
      match e.Typedtree.exp_desc with
      | Texp_ident (path, _, _) when List.exists (String.equal (path_name path)) poly_ops
        -> (
        match first_arrow_arg e.exp_type with
        | Some arg when not (comparable_ty arg) ->
          let op =
            match String.rindex_opt (path_name path) '.' with
            | Some i ->
              let n = path_name path in
              String.sub n (i + 1) (String.length n - i - 1)
            | None -> path_name path
          in
          let hint =
            if head_is_option arg then
              "use Option.is_some/is_none or equal on the element type"
            else "use the type's dedicated equal/compare"
          in
          acc :=
            finding ~code:"D001" ~cls ~loc:e.exp_loc
              "polymorphic %s instantiated at %s; %s" op (string_of_type arg) hint
            :: !acc
        | _ -> ())
      | _ -> ());
  !acc
  end

(* ---- D002: unordered Hashtbl iteration ---------------------------------- *)

let d002_targets name =
  ends_with ~suffix:"Hashtbl.iter" name
  || ends_with ~suffix:"Hashtbl.fold" name
  || ends_with ~suffix:"Tbl.iter" name
  || ends_with ~suffix:"Tbl.fold" name

let d002_check (cls : Classify.t) str =
  let acc = ref [] in
  iter_exprs str (fun e ->
      match e.Typedtree.exp_desc with
      | Texp_ident (path, _, _) when d002_targets (path_name path) ->
        acc :=
          finding ~code:"D002" ~cls ~loc:e.exp_loc
            "unordered %s; iterate keys in sorted order, or annotate with [@ntcu.allow \"D002\"] if the consumer is order-insensitive"
            (path_name path)
          :: !acc
      | _ -> ());
  !acc

(* ---- D003: wall clock / global Random in protocol code ------------------ *)

let d003_clock = [ "Stdlib.Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.times" ]

let d003_target name =
  List.exists (String.equal name) d003_clock
  || starts_with ~prefix:"Stdlib.Random." name
     && not (starts_with ~prefix:"Stdlib.Random.State." name)

let d003_check (cls : Classify.t) str =
  if cls.clock_allowed then []
  else begin
    let acc = ref [] in
    iter_exprs str (fun e ->
        match e.Typedtree.exp_desc with
        | Texp_ident (path, _, _) when d003_target (path_name path) ->
          acc :=
            finding ~code:"D003" ~cls ~loc:e.exp_loc
              "%s in protocol code; thread an Ntcu_std.Rng.t / simulated clock instead (harness and tests are allowlisted)"
              (path_name path)
            :: !acc
        | _ -> ());
    !acc
  end

(* ---- D004: toplevel mutable state in domain-shared libraries ------------ *)

let d004_creators name =
  String.equal name "Stdlib.ref"
  || ends_with ~suffix:"Hashtbl.create" name
  || ends_with ~suffix:"Tbl.create" name
  || ends_with ~suffix:"Buffer.create" name

(* Scan an expression for mutable-state creation, stopping at function
   boundaries: state created inside a function body is per-call, not
   toplevel. [lazy] does NOT stop the scan — a toplevel lazy forced from two
   domains races (the Logmath factorial-cache lesson). *)
let d004_scan_expr ~cls acc (e : Typedtree.expression) =
  let open Tast_iterator in
  let expr sub e' =
    match e'.Typedtree.exp_desc with
    | Texp_function _ -> ()
    | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args)
      when d004_creators (path_name path) ->
      acc :=
        finding ~code:"D004" ~cls ~loc:e'.exp_loc
          "toplevel mutable state (%s) in a library shared across the domain pool; move it under a function or owner-domain guard, or annotate with a justification"
          (path_name path)
        :: !acc;
      List.iter (fun (_, a) -> match a with Some a -> sub.expr sub a | None -> ()) args
    | _ -> default_iterator.expr sub e'
  in
  let it = { default_iterator with expr } in
  it.expr it e

let rec d004_scan_items ~cls acc items =
  List.iter
    (fun (si : Typedtree.structure_item) ->
      match si.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) -> d004_scan_expr ~cls acc vb.vb_expr)
          vbs
      | Tstr_module mb -> d004_scan_module ~cls acc mb.mb_expr
      | Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) -> d004_scan_module ~cls acc mb.mb_expr)
          mbs
      | Tstr_include incl -> d004_scan_module ~cls acc incl.incl_mod
      | _ -> ())
    items

and d004_scan_module ~cls acc (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> d004_scan_items ~cls acc str.str_items
  | Tmod_constraint (me, _, _, _) -> d004_scan_module ~cls acc me
  | _ -> ()

let d004_check (cls : Classify.t) (str : Typedtree.structure) =
  if not cls.in_lib then []
  else begin
    let acc = ref [] in
    d004_scan_items ~cls acc str.Typedtree.str_items;
    !acc
  end

(* ---- D005: lossy float formatting in emitters --------------------------- *)

(* Format literals are elaborated by the typechecker into
   CamlinternalFormatBasics constructors carrying the literal's location, so
   a [%f] in a format string surfaces as a [Float_f] construct here. *)
let d005_float_convs = [ "Float_f"; "Float_F" ]

let d005_check (cls : Classify.t) str =
  if not cls.emitter then []
  else begin
    let acc = ref [] in
    iter_exprs str (fun e ->
        match e.Typedtree.exp_desc with
        | Texp_ident (path, _, _)
          when String.equal (path_name path) "Stdlib.string_of_float" ->
          acc :=
            finding ~code:"D005" ~cls ~loc:e.exp_loc
              "string_of_float is lossy; use %%h (exact) or Report.Json.float_repr (%%.17g)"
            :: !acc
        | Texp_construct (_, cd, _)
          when List.exists (String.equal cd.cstr_name) d005_float_convs
               && (match Types.get_desc cd.cstr_res with
                  | Tconstr (p, _, _) -> ends_with ~suffix:"float_kind_conv" (path_name p)
                  | _ -> false) ->
          acc :=
            finding ~code:"D005" ~cls ~loc:e.exp_loc
              "lossy float conversion %%f in an emitter; use %%h (exact) or %%.17g so equal text means equal floats"
            :: !acc
        | _ -> ());
    !acc
  end

(* ---- shared site predicates (reused by the interprocedural rules) ------- *)

let d005_site (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> String.equal (path_name path) "Stdlib.string_of_float"
  | Texp_construct (_, cd, _) ->
    List.exists (String.equal cd.cstr_name) d005_float_convs
    && (match Types.get_desc cd.cstr_res with
       | Tconstr (p, _, _) -> ends_with ~suffix:"float_kind_conv" (path_name p)
       | _ -> false)
  | _ -> false

(* ---- registry ----------------------------------------------------------- *)

let all =
  [
    {
      code = "D001";
      title = "polymorphic compare at abstract protocol type";
      check = d001_check;
    };
    { code = "D002"; title = "unordered Hashtbl iteration"; check = d002_check };
    {
      code = "D003";
      title = "wall clock or global Random in protocol code";
      check = d003_check;
    };
    {
      code = "D004";
      title = "toplevel mutable state shared across domains";
      check = d004_check;
    };
    { code = "D005"; title = "lossy float formatting in emitter"; check = d005_check };
  ]

let dedupe_sorted findings =
  let sorted = List.sort Finding.compare findings in
  let rec go = function
    | a :: (b :: _ as rest) -> if Finding.equal a b then go rest else a :: go rest
    | rest -> rest
  in
  go sorted

let run_all cls str =
  let raw = List.concat_map (fun r -> r.check cls str) all in
  let regions = Allow.collect str in
  dedupe_sorted (Allow.filter regions raw)
