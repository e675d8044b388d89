type t = {
  source : string;
  in_lib : bool;
  in_test : bool;
  clock_allowed : bool;
  emitter : bool;
  codec : bool;
  dispatch : bool;
}

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let basename s =
  match String.rindex_opt s '/' with
  | None -> s
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)

(* Modules whose output is diffed byte-for-byte (JSON reports, golden traces,
   wire codecs, repro files): lossy float formatting there can mask a real
   divergence behind identical rounded text. *)
let emitter_basenames = [ "report.ml"; "trace.ml"; "codec.ml"; "repro.ml" ]

(* Wire codec units: the P002 encoder/decoder parity checks apply. [codec.ml]
   writes the sharded engine's cross-shard frames, whose kinds are kind_*
   constants (frame-kind parity); a codec unit that matches message
   constructors gets constructor parity too. *)
let codec_basenames = [ "codec.ml" ]

(* Directories holding protocol state machines: a wildcard arm in a match
   over a wire message type there silently drops message kinds (P001). *)
let dispatch_prefixes =
  [ "lib/core/"; "lib/protocol/"; "lib/chord/"; "lib/baseline/"; "lib/extensions/";
    "lib/scale/" ]

let of_source source =
  {
    source;
    in_lib = starts_with "lib/" source;
    in_test = starts_with "test/" source;
    clock_allowed = starts_with "lib/harness/" source || starts_with "test/" source;
    emitter = List.mem (basename source) emitter_basenames;
    codec = List.mem (basename source) codec_basenames;
    dispatch = List.exists (fun p -> starts_with p source) dispatch_prefixes;
  }
