module Matrix = Linalg.Matrix

let to_string y =
  let b = Buffer.create 65536 in
  Buffer.add_string b
    (Printf.sprintf "netloss-measurements 1 %d %d\n" (Matrix.rows y) (Matrix.cols y));
  for l = 0 to Matrix.rows y - 1 do
    for i = 0 to Matrix.cols y - 1 do
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (Printf.sprintf "%.17g" (Matrix.get y l i))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* Parse failures carry the source name and 1-based line number so the
   CLI can turn a ragged file into a one-line diagnostic instead of a
   backtrace. Blank and [#]-comment lines are skipped but still counted. *)
let of_string ?(path = "<string>") ?(strict = true) s =
  let fail_line n fmt =
    Printf.ksprintf (fun msg -> failwith (Printf.sprintf "%s:%d: %s" path n msg)) fmt
  in
  (* [save] ends every line with a newline, so a file without one was cut
     short — possibly inside its last value, which would still parse *)
  let len = String.length s in
  if len > 0 && s.[len - 1] <> '\n' then
    fail_line
      (1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s)
      "last line has no newline (truncated file?)";
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> failwith (Printf.sprintf "%s: empty measurement file" path)
  | (hline, header) :: rows -> (
      match String.split_on_char ' ' header |> List.filter (fun w -> w <> "") with
      | [ "netloss-measurements"; "1"; m; np ] ->
          let parse_int what s =
            match int_of_string_opt s with
            | Some v when v >= 0 -> v
            | _ -> fail_line hline "bad %s %S in header" what s
          in
          let m = parse_int "snapshot count" m
          and np = parse_int "path count" np in
          if List.length rows <> m then
            fail_line hline "header promises %d snapshot rows, file has %d" m
              (List.length rows);
          let parse_row (n, line) =
            let cells =
              String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
            in
            let got = List.length cells in
            if got <> np then fail_line n "expected %d columns, got %d" np got;
            Array.of_list
              (List.map
                 (fun w ->
                   match float_of_string_opt w with
                   | Some x ->
                       (* a measurement is a log success rate: finite and
                          <= 0 (success rate in (0, 1]); anything else is
                          corrupt unless the caller opted into permissive
                          loading for quarantine-aware ingest *)
                       if strict then begin
                         if Float.is_nan x then
                           fail_line n "missing measurement (NaN) %S" w
                         else if not (Float.is_finite x) then
                           fail_line n "non-finite measurement %S" w
                         else if x > 0. then
                           fail_line n
                             "measurement %S is a positive log success rate \
                              (success rate > 1)"
                             w
                       end;
                       x
                   | None -> fail_line n "bad measurement %S" w)
                 cells)
          in
          let data = Array.of_list (List.map parse_row rows) in
          Matrix.init m np (fun l i -> data.(l).(i))
      | _ ->
          fail_line hline
            "missing \"netloss-measurements 1 <snapshots> <paths>\" header")

let save path y =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "measurements" ".tmp" in
  let oc = open_out tmp in
  (try output_string oc (to_string y)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path

let load ?strict path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string ~path ?strict s
