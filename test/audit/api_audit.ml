(* API audit: list every val exported by lib/*/*.mli that no code outside
   test/ refers to.

   Usage: api_audit ROOT

   ROOT holds lib/, bin/, bench/, perfbench/, examples/ and test/.  Each
   .ml/.mli file is lexed (comments, strings and character literals
   dropped) and scanned for references:

   - a qualified path [A.B.M.v] refers to val [v] of module [M] (a library
     prefix such as [Topology.] restricts [M] to that library; [module X =
     A.M] aliases are followed);
   - a bare [v] refers to [M.v] when the file opens [M] ([open M],
     [include M], [M.( ... )]).

   A val counts as called when some file other than its own module's
   .ml/.mli refers to it.  The output lists, sorted, each val that has no
   such caller outside test/, tagged [test-only] when a test refers to it
   and [uncalled] otherwise.  The check is lexical, so it errs towards
   "called": a local binding that shadows the name of an opened module's
   val counts as a reference. *)

type token = Ident of string | Dot | Sym of char

let is_ident_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  (* Index just past the string literal whose opening quote is at [i]. *)
  let rec skip_string i =
    if i >= n then n
    else if s.[i] = '\\' then skip_string (i + 2)
    else if s.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  (* [{id|...|id}] quoted strings: [i] is at the brace. *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && (s.[!j] = '_' || (s.[!j] >= 'a' && s.[!j] <= 'z')) do incr j done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let k = ref (!j + 1) in
      let m = String.length close in
      while !k + m <= n && String.sub s !k m <> close do incr k done;
      Some (min n (!k + m))
    end
    else None
  in
  let rec skip_comment i depth =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if s.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else skip_comment (i + 1) depth
  in
  let rec go i =
    if i < n then begin
      let c = s.[i] in
      if i + 1 < n && c = '(' && s.[i + 1] = '*' then go (skip_comment (i + 2) 1)
      else if c = '"' then go (skip_string (i + 1))
      else if c = '{' then
        match quoted_string i with Some j -> go j | None -> push (Sym c); go (i + 1)
      else if c = '\'' then
        (* Character literal, or the quote of a type variable. *)
        if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then go (i + 3)
        else if i + 1 < n && s.[i + 1] = '\\' then begin
          let j = ref (i + 2) in
          while !j < n && s.[!j] <> '\'' do incr j done;
          go (!j + 1)
        end
        else go (i + 1)
      else if c >= '0' && c <= '9' then begin
        let j = ref i in
        while !j < n && (is_ident_char s.[!j] || s.[!j] = '.') do incr j done;
        go !j
      end
      else if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do incr j done;
        push (Ident (String.sub s i (!j - i)));
        go !j
      end
      else begin
        if c = '.' then push Dot
        else if c > ' ' then push (Sym c);
        go (i + 1)
      end
    end
  in
  go 0;
  Array.of_list (List.rev !toks)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Source files under [dir], recursively, skipping build and cram dirs. *)
let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then
           if e = "_build" || Filename.check_suffix e ".t" then [] else sources p
         else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then [ p ]
         else [])

(* Library name of each lib/ subdirectory, read from its dune file. *)
let library_name dir =
  let toks = tokenize (read_file (Filename.concat dir "dune")) in
  let rec find i =
    if i + 1 >= Array.length toks then Filename.basename dir
    else match (toks.(i), toks.(i + 1)) with
      | Ident "name", Ident l -> l
      | _ -> find (i + 1)
  in
  String.capitalize_ascii (find 0)

type export = { lib : string; file : string; modname : string; display : string; name : string }

(* Vals of one .mli; those inside [module X : sig ... end] belong to [X]. *)
let exports ~lib path =
  let toks = tokenize (read_file path) in
  let top = String.capitalize_ascii (Filename.remove_extension (Filename.basename path)) in
  let stack = ref [ top ] in
  let pending = ref None in
  let out = ref [] in
  Array.iteri
    (fun i t ->
      match t with
      | Ident "module" -> (
          (* [module X : sig] or [module type X = sig] *)
          let j = if toks.(i + 1) = Ident "type" then i + 2 else i + 1 in
          match (toks.(j), toks.(j + 2)) with
          | Ident x, Ident "sig" -> pending := Some x
          | _ -> ())
      | Ident ("sig" | "struct" | "object") ->
          stack := Option.value !pending ~default:"_" :: !stack;
          pending := None
      | Ident "end" -> if List.length !stack > 1 then stack := List.tl !stack
      | Ident ("val" | "external") -> (
          match toks.(i + 1) with
          | Ident name when not (is_upper name) ->
              let display = String.concat "." (List.rev !stack) in
              out := { lib; file = path; modname = List.hd !stack; display; name } :: !out
          | _ -> ())
      | _ -> ())
    toks;
  List.rev !out

type file_refs = {
  path : string;
  qualified : (string option * string * string) list;  (* library, module, val *)
  opened : string list;
  bare : (string, unit) Hashtbl.t;
}

(* The dotted path of capitalized names starting at token [i], split at
   its end: [Module (comps, j)] when token [j] after the last name is not
   a dot, [Member (comps, j)] when the path ends in a dot and token [j]
   follows it (a value name, or a bracket of a local open). *)
type module_path = Module of string list * int | Member of string list * int

let path_at toks i =
  let n = Array.length toks in
  let rec go i acc =
    match if i < n then Some toks.(i) else None with
    | Some (Ident m) when is_upper m ->
        if i + 1 < n && toks.(i + 1) = Dot then go (i + 2) (m :: acc)
        else Module (List.rev (m :: acc), i + 1)
    | _ -> Member (List.rev acc, i)
  in
  go i []

let last l = List.nth l (List.length l - 1)

let scan path =
  let toks = tokenize (read_file path) in
  let n = Array.length toks in
  let aliases = Hashtbl.create 8 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let qualified = ref [] and opened = ref [] in
  let bare = Hashtbl.create 256 in
  let after_dot i = i > 0 && toks.(i - 1) = Dot in
  for i = 0 to n - 1 do
    (match toks.(i) with
    | Ident "module" when i + 3 < n && toks.(i + 2) = Sym '=' -> (
        (* [module X = A.M], not a functor application [A.F (...)] *)
        match (toks.(i + 1), path_at toks (i + 3)) with
        | Ident x, Module (comps, j) when j >= n || toks.(j) <> Sym '(' ->
            Hashtbl.replace aliases x (last comps)
        | _ -> ())
    | Ident ("open" | "include") -> (
        let i = if i + 1 < n && toks.(i + 1) = Sym '!' then i + 2 else i + 1 in
        match path_at toks i with
        | Module (comps, _) -> opened := resolve (last comps) :: !opened
        | Member _ -> ())
    | _ -> ());
    match toks.(i) with
    | Ident m when is_upper m && not (after_dot i) -> (
        match path_at toks i with
        | Member (comps, j) when comps <> [] && j < n -> (
            let m = resolve (last comps) in
            let lib = match comps with l :: _ :: _ -> Some l | _ -> None in
            match toks.(j) with
            | Ident v when not (is_upper v) -> qualified := (lib, m, v) :: !qualified
            | Sym ('(' | '[' | '{') -> opened := m :: !opened
            | _ -> ())
        | _ -> ())
    | Ident v when not (is_upper v || after_dot i) -> Hashtbl.replace bare v ()
    | _ -> ()
  done;
  { path; qualified = !qualified; opened = !opened; bare }

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let sub d = Filename.concat root d in
  let lib_dirs =
    Sys.readdir (sub "lib") |> Array.to_list |> List.sort compare
    |> List.map (Filename.concat (sub "lib"))
    |> List.filter (fun d -> Sys.is_directory d && Sys.file_exists (Filename.concat d "dune"))
  in
  let libs = List.map (fun d -> (d, library_name d)) lib_dirs in
  let exported =
    List.concat_map
      (fun (d, lib) ->
        sources d |> List.filter (fun p -> Filename.check_suffix p ".mli") |> List.concat_map (exports ~lib))
      libs
  in
  let lib_of_path p =
    List.find_map (fun (d, l) -> if Filename.dirname p = d then Some l else None) libs
  in
  let is_test p = String.starts_with ~prefix:(sub "test" ^ Filename.dir_sep) p in
  let scanned =
    List.concat_map (fun d -> sources (sub d)) [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]
    |> List.map scan
  in
  let modules_of lib =
    List.filter_map (fun e -> if e.lib = lib then Some e.modname else None) exported
  in
  let refers f e =
    let same_file = Filename.remove_extension f.path = Filename.remove_extension e.file in
    (not same_file)
    && (List.exists
          (fun (l, m, v) ->
            m = e.modname && v = e.name
            &&
            match l with
            | Some l when List.exists (fun (_, x) -> x = l) libs -> l = e.lib
            | _ -> (
                (* Inside a library, an unqualified module name means its own. *)
                match lib_of_path f.path with
                | Some own when own <> e.lib && List.mem m (modules_of own) -> false
                | _ -> true))
          f.qualified
       || (List.mem e.modname f.opened && Hashtbl.mem f.bare e.name))
  in
  exported
  |> List.filter_map (fun e ->
         let callers = List.filter (fun f -> refers f e) scanned in
         if List.exists (fun f -> not (is_test f.path)) callers then None
         else
           let tag = if callers = [] then "uncalled" else "test-only" in
           Some (Printf.sprintf "%s.%s.%s %s" e.lib e.display e.name tag))
  |> List.sort_uniq compare
  |> List.iter print_endline
