type t = { dimension : int; mutable basis : Vector.t list }

let create ~dim =
  if dim < 0 then invalid_arg "Ortho.create: negative dimension";
  { dimension = dim; basis = [] }

let size b = List.length b.basis

(* Project out the span in place; two passes of modified Gram-Schmidt keep
   the residual orthogonal to working precision even for nearly dependent
   inputs. The dot/axpy pair is fused into one unchecked loop body: this
   runs once per (basis vector, candidate column) pair of the rank
   reduction, where the bounds checks alone are measurable. *)
let orthogonalize b v =
  let w = Vector.copy v in
  let n = Array.length w in
  let pass () =
    List.iter
      (fun q ->
        let c = ref 0. in
        for i = 0 to n - 1 do
          c := !c +. (Array.unsafe_get q i *. Array.unsafe_get w i)
        done;
        let c = !c in
        if c <> 0. then
          for i = 0 to n - 1 do
            Array.unsafe_set w i
              ((-.c *. Array.unsafe_get q i) +. Array.unsafe_get w i)
          done)
      b.basis
  in
  pass ();
  pass ();
  w

let independent ?(tol = 1e-8) b v =
  let nv = Vector.norm2 v in
  if nv = 0. then None
  else begin
    let w = orthogonalize b v in
    let nw = Vector.norm2 w in
    if nw > tol *. nv then Some (Vector.scale (1. /. nw) w) else None
  end

let try_add ?tol b v =
  if Array.length v <> b.dimension then invalid_arg "Ortho.try_add: dimension mismatch";
  match independent ?tol b v with
  | Some q ->
      b.basis <- q :: b.basis;
      true
  | None -> false

let in_span ?tol b v =
  if Array.length v <> b.dimension then invalid_arg "Ortho.in_span: dimension mismatch";
  independent ?tol b v = None

let copy b = { b with basis = List.map Vector.copy b.basis }
