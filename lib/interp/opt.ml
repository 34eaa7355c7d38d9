(** Slot-IR optimizer: the stage between {!Resolve} and the bytecode
    lowering of {!Bytecode}.

    Five passes, each individually toggleable and each carrying a
    bit-identity obligation against the reference walker
    ([Eval.run_ir] over the {e unoptimized} IR): same virtual-cycle
    totals, same counter values, same memory effects and focus ranges,
    same output, same error points, same fuel accounting.

    - {b constant folding}: pure constant subtrees collapse to
      {!Resolve.EFolded} nodes that replay the subtree's counter bumps
      and dynamic cycle charges (all folded arithmetic is the same
      in-process IEEE arithmetic the walker would have performed).
    - {b strength reduction}: arithmetic/comparison/division nodes whose
      int-vs-float path is statically known lose their runtime
      [is_float] dispatch ([EArithF]/[EArithI]/...).
    - {b dead-slot elimination}: [Set]-writes to local slots never read
      anywhere in their function become {!Resolve.SDrop}s — the rhs is
      still evaluated and the declaration coercion's error check is
      still applied, but nothing is stored.
    - {b loop-invariant hoisting}: pure float subtrees inside loop
      bodies whose free slots the body never writes are memoized in
      hidden frame slots ({!Resolve.EHoisted}), invalidated per loop
      invocation by a {!Resolve.SHoistReset}.
    - {b kernel specialization}: innermost counted loops whose bodies
      are straight-line float arithmetic over affine memory sites
      (elementwise maps, scaled accumulates/reductions, stencil reads)
      compile to {!Resolve.kernel}s — flat float-register programs whose
      per-iteration virtual costs are charged in bulk.

    Cycle-exactness of bulk charging rests on every {!Profile.Cost}
    constant being an integer-valued float: sums and products of
    integer-valued doubles below 2{^53} are exact, so [n] bulk-charged
    iterations equal [n] individually charged ones bit-for-bit.

    [PSAFLOW_NO_OPT=1] disables the whole stage (same flag grammar as
    [PSAFLOW_NO_MEMO]); {!set_enabled} does the same programmatically. *)

module R = Resolve
module C = Profile.Cost
open Value

type config = {
  fold : bool;
  strength : bool;
  dead : bool;
  hoist : bool;
  specialize : bool;
}

let all_passes =
  { fold = true; strength = true; dead = true; hoist = true; specialize = true }

let no_passes =
  {
    fold = false;
    strength = false;
    dead = false;
    hoist = false;
    specialize = false;
  }

let enabled = ref (not (Flow_obs.Env.flag ~name:"PSAFLOW_NO_OPT" ()))

let set_enabled b = enabled := b
let is_enabled () = !enabled

(** Per-[optimize] pass statistics, also published to
    {!Flow_obs.Metrics.global} as [opt_*] counters. *)
type stats = {
  mutable consts_folded : int;
  mutable ops_strength_reduced : int;
  mutable slots_eliminated : int;
  mutable exprs_hoisted : int;
  mutable kernels_specialized : int;
}

(* ------------------------------------------------------------------ *)
(* Static value types                                                  *)
(* ------------------------------------------------------------------ *)

(* A whole-program flow-insensitive type for each local and global slot:
   the join of every value ever written to it.  [Bot] = never written
   (the slot still holds its initial [VUnit]).  Precision matters only
   for [TFloat] ("definitely a float at runtime") and for the
   definitely-not-float set; everything uncertain joins to [Top]. *)
type ty = Bot | TInt | TBool | TFloat | TUnit | TPtr of Minic.Ast.typ | Top

let join a b =
  if a = b then a else match (a, b) with Bot, x | x, Bot -> x | _ -> Top

let is_f = function TFloat -> true | _ -> false

(* [Value.is_float] is statically false: the int path of arith/cmp/div
   is taken (it may still error on VUnit/VPtr operands — exactly as the
   unoptimized node would). *)
let not_f = function
  | Bot | TInt | TBool | TUnit | TPtr _ -> true
  | TFloat | Top -> false

let ty_of_decl (typ : Minic.Ast.typ) ~(init : ty option) =
  match typ with
  | Minic.Ast.Tint -> TInt
  | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> TFloat
  | Minic.Ast.Tbool -> TBool
  | Minic.Ast.Tptr _ | Minic.Ast.Tvoid -> (
      (* no coercion: the slot gets the init value as-is, or the typ's
         zero value *)
      match init with
      | Some t -> t
      | None -> (
          match typ with
          | Minic.Ast.Tptr t -> TPtr t
          | _ -> TUnit))

let arith_ty a b = if is_f a || is_f b then TFloat else if not_f a && not_f b then TInt else Top

(* Slot-type environment: one [ty array] per function frame plus one for
   the globals.  [tenv.(nfuncs)] is the global array. *)
type tenv = { locals : ty array array; globals : ty array }

let rec ety (env : tenv) (lt : ty array) (e : R.expr) : ty =
  match e.e with
  | R.ELit (VInt _) -> TInt
  | R.ELit (VFloat _) -> TFloat
  | R.ELit (VBool _) -> TBool
  | R.ELit VUnit -> TUnit
  | R.ELit (VPtr _) -> Top
  | R.EVar (R.Local i) -> lt.(i)
  | R.EVar (R.Global i) -> env.globals.(i)
  | R.EVar (R.Unbound _) -> Top
  | R.ENeg a -> (
      match ety env lt a with TFloat -> TFloat | TInt -> TInt | _ -> Top)
  | R.ENot _ -> TBool
  | R.EArith (_, _, a, b) | R.EArithF (_, _, a, b) | R.EArithI (_, a, b) ->
      arith_ty (ety env lt a) (ety env lt b)
  | R.EDiv (a, b) | R.EDivF (a, b) | R.EDivI (a, b) ->
      arith_ty (ety env lt a) (ety env lt b)
  | R.EMod _ -> TInt
  | R.ECmp _ | R.ECmpF _ | R.ECmpI _ -> TBool
  | R.EAnd _ | R.EOr _ -> TBool
  | R.EIndex (a, _) -> (
      (* float regions provably hold only [VFloat]s: allocation
         zero-fills with floats, Set-stores coerce, and compound stores
         on a float produce a float.  Int regions can be polluted by an
         uncoerced compound [/=], so they type as [Top]. *)
      match ety env lt a with
      | TPtr (Minic.Ast.Tfloat | Minic.Ast.Tdouble) -> TFloat
      | _ -> Top)
  | R.ECast (t, a) -> (
      match t with
      | Minic.Ast.Tint -> TInt
      | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> TFloat
      | Minic.Ast.Tbool -> TBool
      | Minic.Ast.Tptr _ | Minic.Ast.Tvoid -> ety env lt a)
  | R.ECall { callee; _ } -> (
      match callee with
      | R.Math _ | R.Rand01 -> TFloat
      | R.Rand_int -> TInt
      | R.Print_int | R.Print_float | R.Timer_start | R.Timer_stop -> TUnit
      | R.User _ | R.Math_unimpl _ | R.Unknown _ -> Top)
  | R.EFolded f -> (
      match f.fval with
      | VInt _ -> TInt
      | VFloat _ -> TFloat
      | VBool _ -> TBool
      | VUnit -> TUnit
      | VPtr _ -> Top)
  | R.EHoisted _ -> TFloat

(* Iterate every expression of a statement (sub-expressions excluded —
   callers recurse via [iter_expr] when needed). *)
let rec stmt_exprs (s : R.stmt) : R.expr list =
  match s with
  | R.SDeclVar { init; _ } -> Option.to_list init
  | R.SDeclArr { size; _ } -> [ size ]
  | R.SAssign { rhs; _ } -> [ rhs ]
  | R.SStore { arr; idx; rhs; _ } -> [ rhs; arr; idx ]
  | R.SExpr e -> [ e ]
  | R.SIf (c, _, _) -> [ c ]
  | R.SWhile { cond; _ } -> [ cond ]
  | R.SFor { init; bound; step; _ } -> [ init; bound; step ]
  | R.SReturn eo -> Option.to_list eo
  | R.SBlock _ -> []
  | R.SDrop { drhs; _ } -> Option.to_list drhs
  | R.SHoistReset _ -> []
  | R.SFused { forig; _ } -> stmt_exprs forig

let rec sub_blocks (s : R.stmt) : R.block list =
  match s with
  | R.SIf (_, b1, b2) -> b1 :: Option.to_list b2
  | R.SWhile { body; _ } | R.SFor { body; _ } -> [ body ]
  | R.SBlock b -> [ b ]
  | R.SFused { forig; _ } -> sub_blocks forig
  | _ -> []

let rec iter_expr f (e : R.expr) =
  f e;
  match e.e with
  | R.ELit _ | R.EVar _ -> ()
  | R.ENeg a | R.ENot a | R.ECast (_, a) -> iter_expr f a
  | R.EArith (_, _, a, b)
  | R.EArithF (_, _, a, b)
  | R.EArithI (_, a, b)
  | R.EDiv (a, b)
  | R.EDivF (a, b)
  | R.EDivI (a, b)
  | R.EMod (a, b)
  | R.ECmp (_, a, b)
  | R.ECmpF (_, a, b)
  | R.ECmpI (_, a, b)
  | R.EAnd (a, b)
  | R.EOr (a, b)
  | R.EIndex (a, b) ->
      iter_expr f a;
      iter_expr f b
  | R.ECall { cargs; _ } -> List.iter (iter_expr f) cargs
  | R.EFolded _ -> ()
  | R.EHoisted h -> iter_expr f h.horig

let rec iter_stmts f (b : R.block) =
  List.iter
    (fun (g : R.group) ->
      List.iter
        (fun s ->
          f s;
          List.iter (iter_stmts f) (sub_blocks s))
        g.gstmts)
    b

(* One fixpoint over the whole program: slot writes join value types,
   user call sites join argument types into callee parameter slots
   (parameter binding does not coerce). *)
let type_program (cp : R.t) : tenv =
  let env =
    {
      locals =
        Array.map (fun (f : R.cfunc) -> Array.make (max 1 f.cf_nslots) Bot) cp.cfuncs;
      globals = Array.make (max 1 cp.nglobals) Bot;
    }
  in
  let changed = ref true in
  let assign_local lt i t =
    let j = join lt.(i) t in
    if j <> lt.(i) then (
      lt.(i) <- j;
      changed := true)
  in
  let assign lt (r : R.var_ref) t =
    match r with
    | R.Local i -> assign_local lt i t
    | R.Global i ->
        let j = join env.globals.(i) t in
        if j <> env.globals.(i) then (
          env.globals.(i) <- j;
          changed := true)
    | R.Unbound _ -> ()
  in
  let visit_calls lt e =
    iter_expr
      (fun (e : R.expr) ->
        match e.e with
        | R.ECall { callee = R.User idx; cargs } ->
            let f = cp.cfuncs.(idx) in
            let flt = env.locals.(idx) in
            if List.length cargs = Array.length f.cf_param_slots then
              List.iteri
                (fun i a -> assign_local flt f.cf_param_slots.(i) (ety env lt a))
                cargs
        | _ -> ())
      e
  in
  let visit_stmt lt (s : R.stmt) =
    List.iter (visit_calls lt) (stmt_exprs s);
    match s with
    | R.SDeclVar { slot; typ; init } ->
        assign lt slot
          (ty_of_decl typ ~init:(Option.map (ety env lt) init))
    | R.SDeclArr { slot; typ; _ } -> assign lt slot (TPtr typ)
    | R.SAssign { slot; aop = Minic.Ast.Set; rhs } -> assign lt slot (ety env lt rhs)
    | R.SAssign { slot; aop = Minic.Ast.DivEq; rhs } ->
        let old =
          match slot with
          | R.Local i -> lt.(i)
          | R.Global i -> env.globals.(i)
          | R.Unbound _ -> Top
        in
        assign lt slot (arith_ty old (ety env lt rhs))
    | R.SAssign { slot; aop = _; rhs } ->
        let old =
          match slot with
          | R.Local i -> lt.(i)
          | R.Global i -> env.globals.(i)
          | R.Unbound _ -> Top
        in
        assign lt slot (arith_ty old (ety env lt rhs))
    | R.SFor { slot; _ } -> assign lt slot TInt
    | _ -> ()
  in
  while !changed do
    changed := false;
    iter_stmts (visit_stmt env.globals) cp.cglobals;
    Array.iteri
      (fun i (f : R.cfunc) -> iter_stmts (visit_stmt env.locals.(i)) f.cf_body)
      cp.cfuncs
  done;
  env

(* ------------------------------------------------------------------ *)
(* Shared rewriting plumbing                                           *)
(* ------------------------------------------------------------------ *)

(* Rewrite every top-level expression and statement of a function body,
   preserving group structure and group costs (no pass changes any
   static cost; dropped/folded work is replayed dynamically). *)
let map_block ~(fe : R.expr -> R.expr) ~(fs : R.stmt -> R.stmt option) :
    R.block -> R.block =
  let rec go_stmt (s : R.stmt) : R.stmt =
    let s =
      match s with
      | R.SDeclVar d -> R.SDeclVar { d with init = Option.map fe d.init }
      | R.SDeclArr d -> R.SDeclArr { d with size = fe d.size }
      | R.SAssign a -> R.SAssign { a with rhs = fe a.rhs }
      | R.SStore st ->
          R.SStore { st with rhs = fe st.rhs; arr = fe st.arr; idx = fe st.idx }
      | R.SExpr e -> R.SExpr (fe e)
      | R.SIf (c, b1, b2) -> R.SIf (fe c, go_block b1, Option.map go_block b2)
      | R.SWhile w -> R.SWhile { w with cond = fe w.cond; body = go_block w.body }
      | R.SFor f ->
          R.SFor
            {
              f with
              init = fe f.init;
              bound = fe f.bound;
              step = fe f.step;
              body = go_block f.body;
            }
      | R.SReturn eo -> R.SReturn (Option.map fe eo)
      | R.SBlock b -> R.SBlock (go_block b)
      | R.SDrop d -> R.SDrop { d with drhs = Option.map fe d.drhs }
      | R.SHoistReset _ -> s
      | R.SFused f -> R.SFused { f with forig = go_stmt f.forig }
    in
    match fs s with Some s' -> s' | None -> s
  and go_block (b : R.block) : R.block =
    List.map
      (fun (g : R.group) -> { g with R.gstmts = List.map go_stmt g.gstmts })
      b
  in
  go_block

let keep (_ : R.stmt) : R.stmt option = None

(* ------------------------------------------------------------------ *)
(* Pass 1: constant folding                                            *)
(* ------------------------------------------------------------------ *)

(* The dynamic effects of evaluating a folded subtree: counter bumps and
   non-static cycle charges, replayed by [EFolded] at the original
   evaluation point (no observation point can fall inside a single
   expression evaluation, so replaying them all at once is exact). *)
type const = { cv : Value.t; c_flops : int; c_int_ops : int; c_dyn : float }

exception Not_const

let fold_pass (stats : stats) (cp : R.t) : R.t =
  (* numeric-only [to_int]/[to_float]/[to_bool]: folding never touches
     VUnit/VPtr operands (those error paths stay dynamic) *)
  let num_int = function
    | VInt n -> n
    | VBool b -> if b then 1 else 0
    | VFloat f -> int_of_float f
    | _ -> raise Not_const
  in
  let num_float = function
    | VFloat f -> f
    | VInt n -> float_of_int n
    | VBool b -> if b then 1.0 else 0.0
    | _ -> raise Not_const
  in
  let num_bool = function
    | VBool b -> b
    | VInt n -> n <> 0
    | VFloat f -> f <> 0.0
    | _ -> raise Not_const
  in
  let flt a b = is_float a || is_float b in
  (* returns the rewritten expr plus its constant descriptor if the
     whole subtree is a foldable constant *)
  let rec fold (e : R.expr) : R.expr * const option =
    let mk en = { e with R.e = en } in
    (* rebuild a non-foldable node over already-folded children *)
    let reify (child : R.expr) (c : const option) =
      match c with
      | Some d when d.c_flops = 0 && d.c_int_ops = 0 && d.c_dyn = 0.0 -> (
          match child.e with
          | R.ELit _ -> child
          | _ ->
              stats.consts_folded <- stats.consts_folded + 1;
              { child with R.e = R.ELit d.cv })
      | Some d -> (
          match child.e with
          | R.EFolded _ | R.ELit _ -> child
          | _ ->
              stats.consts_folded <- stats.consts_folded + 1;
              {
                child with
                R.e =
                  R.EFolded
                    {
                      fval = d.cv;
                      f_flops = d.c_flops;
                      f_int_ops = d.c_int_ops;
                      f_dyn = d.c_dyn;
                    };
              })
      | None -> child
    in
    let reify1 (child, c) = reify child c in
    match e.e with
    | R.ELit v -> (e, Some { cv = v; c_flops = 0; c_int_ops = 0; c_dyn = 0.0 })
    | R.EVar _ | R.EFolded _ | R.EHoisted _ -> (e, None)
    | R.ENeg a -> (
        let a', ca = fold a in
        match ca with
        | Some d -> (
            try
              match d.cv with
              | VInt n ->
                  (mk (R.ENeg a'), Some { d with cv = VInt (-n) })
              | VFloat f ->
                  ( mk (R.ENeg a'),
                    Some { d with cv = VFloat (-.f); c_flops = d.c_flops + 1 }
                  )
              | _ -> raise Not_const
            with Not_const -> (mk (R.ENeg (reify a' ca)), None))
        | None -> (mk (R.ENeg a'), None))
    | R.ENot a -> (
        let a', ca = fold a in
        match ca with
        | Some d -> (
            try (mk (R.ENot a'), Some { d with cv = VBool (not (num_bool d.cv)) })
            with Not_const -> (mk (R.ENot (reify a' ca)), None))
        | None -> (mk (R.ENot a'), None))
    | R.EArith (op, fresid, a, b) -> (
        let a', ca = fold a in
        let b', cb = fold b in
        let rebuilt () = mk (R.EArith (op, fresid, reify a' ca, reify b' cb)) in
        match (ca, cb) with
        | Some da, Some db -> (
            try
              let cv, c_flops, c_int_ops, c_dyn =
                if flt da.cv db.cv then
                  let x = num_float da.cv and y = num_float db.cv in
                  let v =
                    match op with
                    | Minic.Ast.Add -> x +. y
                    | Minic.Ast.Sub -> x -. y
                    | Minic.Ast.Mul -> x *. y
                    | _ -> raise Not_const
                  in
                  ( VFloat v,
                    da.c_flops + db.c_flops + 1,
                    da.c_int_ops + db.c_int_ops,
                    da.c_dyn +. db.c_dyn +. fresid )
                else
                  let x = num_int da.cv and y = num_int db.cv in
                  let v =
                    match op with
                    | Minic.Ast.Add -> x + y
                    | Minic.Ast.Sub -> x - y
                    | Minic.Ast.Mul -> x * y
                    | _ -> raise Not_const
                  in
                  ( VInt v,
                    da.c_flops + db.c_flops,
                    da.c_int_ops + db.c_int_ops + 1,
                    da.c_dyn +. db.c_dyn )
              in
              (rebuilt (), Some { cv; c_flops; c_int_ops; c_dyn })
            with Not_const -> (rebuilt (), None))
        | _ -> (rebuilt (), None))
    | R.EDiv (a, b) -> (
        let a', ca = fold a in
        let b', cb = fold b in
        let rebuilt () = mk (R.EDiv (reify a' ca, reify b' cb)) in
        match (ca, cb) with
        | Some da, Some db -> (
            try
              if flt da.cv db.cv then
                ( rebuilt (),
                  Some
                    {
                      cv = VFloat (num_float da.cv /. num_float db.cv);
                      c_flops = da.c_flops + db.c_flops + 1;
                      c_int_ops = da.c_int_ops + db.c_int_ops;
                      c_dyn = da.c_dyn +. db.c_dyn +. C.float_div;
                    } )
              else
                let d = num_int db.cv in
                if d = 0 then (rebuilt (), None)
                else
                  ( rebuilt (),
                    Some
                      {
                        cv = VInt (num_int da.cv / d);
                        c_flops = da.c_flops + db.c_flops;
                        c_int_ops = da.c_int_ops + db.c_int_ops + 1;
                        c_dyn = da.c_dyn +. db.c_dyn +. C.int_op;
                      } )
            with Not_const -> (rebuilt (), None))
        | _ -> (rebuilt (), None))
    | R.EMod (a, b) -> (
        let a', ca = fold a in
        let b', cb = fold b in
        let rebuilt () = mk (R.EMod (reify a' ca, reify b' cb)) in
        match (ca, cb) with
        | Some da, Some db -> (
            try
              let fl = flt da.cv db.cv in
              let d = num_int db.cv in
              if d = 0 then (rebuilt (), None)
              else
                ( rebuilt (),
                  Some
                    {
                      cv = VInt (num_int da.cv mod d);
                      c_flops = da.c_flops + db.c_flops + (if fl then 1 else 0);
                      c_int_ops =
                        (da.c_int_ops + db.c_int_ops + if fl then 0 else 1);
                      c_dyn = da.c_dyn +. db.c_dyn;
                    } )
            with Not_const -> (rebuilt (), None))
        | _ -> (rebuilt (), None))
    | R.ECmp (op, a, b) -> (
        let a', ca = fold a in
        let b', cb = fold b in
        let rebuilt () = mk (R.ECmp (op, reify a' ca, reify b' cb)) in
        match (ca, cb) with
        | Some da, Some db -> (
            try
              let fl = flt da.cv db.cv in
              let r =
                match op with
                | Minic.Ast.Lt ->
                    if fl then num_float da.cv < num_float db.cv
                    else num_int da.cv < num_int db.cv
                | Minic.Ast.Le ->
                    if fl then num_float da.cv <= num_float db.cv
                    else num_int da.cv <= num_int db.cv
                | Minic.Ast.Gt ->
                    if fl then num_float da.cv > num_float db.cv
                    else num_int da.cv > num_int db.cv
                | Minic.Ast.Ge ->
                    if fl then num_float da.cv >= num_float db.cv
                    else num_int da.cv >= num_int db.cv
                | Minic.Ast.Eq ->
                    if fl then num_float da.cv = num_float db.cv
                    else num_int da.cv = num_int db.cv
                | Minic.Ast.Ne ->
                    if fl then num_float da.cv <> num_float db.cv
                    else num_int da.cv <> num_int db.cv
                | _ -> raise Not_const
              in
              ( rebuilt (),
                Some
                  {
                    cv = VBool r;
                    c_flops = da.c_flops + db.c_flops;
                    c_int_ops = da.c_int_ops + db.c_int_ops;
                    c_dyn = da.c_dyn +. db.c_dyn;
                  } )
            with Not_const -> (rebuilt (), None))
        | _ -> (rebuilt (), None))
    | R.ECast (t, a) -> (
        let a', ca = fold a in
        match ca with
        | Some d -> (
            try
              let cv =
                match t with
                | Minic.Ast.Tint -> VInt (num_int d.cv)
                | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> VFloat (num_float d.cv)
                | Minic.Ast.Tbool -> VBool (num_bool d.cv)
                | _ -> d.cv
              in
              (mk (R.ECast (t, a')), Some { d with cv })
            with Not_const -> (mk (R.ECast (t, reify a' ca)), None))
        | None -> (mk (R.ECast (t, a')), None))
    (* short-circuit operators charge the right operand's [ecost]
       conditionally: fold only inside the operands *)
    | R.EAnd (a, b) -> (mk (R.EAnd (reify1 (fold a), reify1 (fold b))), None)
    | R.EOr (a, b) -> (mk (R.EOr (reify1 (fold a), reify1 (fold b))), None)
    | R.EIndex (a, i) -> (mk (R.EIndex (reify1 (fold a), reify1 (fold i))), None)
    | R.ECall c ->
        ( mk (R.ECall { c with cargs = List.map (fun a -> reify1 (fold a)) c.cargs }),
          None )
    | R.EArithF _ | R.EArithI _ | R.EDivF _ | R.EDivI _ | R.ECmpF _ | R.ECmpI _
      ->
        (e, None)
  in
  let reify_top (e, c) =
    match c with
    | Some d when d.c_flops = 0 && d.c_int_ops = 0 && d.c_dyn = 0.0 -> (
        match e.R.e with
        | R.ELit _ -> e
        | _ ->
            stats.consts_folded <- stats.consts_folded + 1;
            { e with R.e = R.ELit d.cv })
    | Some d -> (
        match e.R.e with
        | R.EFolded _ | R.ELit _ -> e
        | _ ->
            stats.consts_folded <- stats.consts_folded + 1;
            {
              e with
              R.e =
                R.EFolded
                  {
                    fval = d.cv;
                    f_flops = d.c_flops;
                    f_int_ops = d.c_int_ops;
                    f_dyn = d.c_dyn;
                  };
            })
    | None -> e
  in
  let fe e = reify_top (fold e) in
  let rewrite = map_block ~fe ~fs:keep in
  {
    cp with
    R.cglobals = rewrite cp.cglobals;
    cfuncs =
      Array.map (fun (f : R.cfunc) -> { f with R.cf_body = rewrite f.cf_body }) cp.cfuncs;
  }

(* ------------------------------------------------------------------ *)
(* Pass 2: strength reduction                                          *)
(* ------------------------------------------------------------------ *)

let strength_pass (stats : stats) (cp : R.t) : R.t =
  let env = type_program cp in
  let rewrite_body lt =
    let rec fe (e : R.expr) : R.expr =
      let mk en = { e with R.e = en } in
      match e.e with
      | R.EArith (op, fresid, a, b) ->
          let a = fe a and b = fe b in
          let ta = ety env lt a and tb = ety env lt b in
          if is_f ta || is_f tb then (
            stats.ops_strength_reduced <- stats.ops_strength_reduced + 1;
            mk (R.EArithF (op, fresid, a, b)))
          else if not_f ta && not_f tb then (
            stats.ops_strength_reduced <- stats.ops_strength_reduced + 1;
            mk (R.EArithI (op, a, b)))
          else mk (R.EArith (op, fresid, a, b))
      | R.EDiv (a, b) ->
          let a = fe a and b = fe b in
          let ta = ety env lt a and tb = ety env lt b in
          if is_f ta || is_f tb then (
            stats.ops_strength_reduced <- stats.ops_strength_reduced + 1;
            mk (R.EDivF (a, b)))
          else if not_f ta && not_f tb then (
            stats.ops_strength_reduced <- stats.ops_strength_reduced + 1;
            mk (R.EDivI (a, b)))
          else mk (R.EDiv (a, b))
      | R.ECmp (op, a, b) ->
          let a = fe a and b = fe b in
          let ta = ety env lt a and tb = ety env lt b in
          if is_f ta || is_f tb then (
            stats.ops_strength_reduced <- stats.ops_strength_reduced + 1;
            mk (R.ECmpF (op, a, b)))
          else if not_f ta && not_f tb then (
            stats.ops_strength_reduced <- stats.ops_strength_reduced + 1;
            mk (R.ECmpI (op, a, b)))
          else mk (R.ECmp (op, a, b))
      | R.ELit _ | R.EVar _ | R.EFolded _ -> e
      | R.ENeg a -> mk (R.ENeg (fe a))
      | R.ENot a -> mk (R.ENot (fe a))
      | R.ECast (t, a) -> mk (R.ECast (t, fe a))
      | R.EMod (a, b) -> mk (R.EMod (fe a, fe b))
      | R.EAnd (a, b) -> mk (R.EAnd (fe a, fe b))
      | R.EOr (a, b) -> mk (R.EOr (fe a, fe b))
      | R.EIndex (a, b) -> mk (R.EIndex (fe a, fe b))
      | R.ECall c -> mk (R.ECall { c with cargs = List.map fe c.cargs })
      | R.EArithF (op, fr, a, b) -> mk (R.EArithF (op, fr, fe a, fe b))
      | R.EArithI (op, a, b) -> mk (R.EArithI (op, fe a, fe b))
      | R.EDivF (a, b) -> mk (R.EDivF (fe a, fe b))
      | R.EDivI (a, b) -> mk (R.EDivI (fe a, fe b))
      | R.ECmpF (op, a, b) -> mk (R.ECmpF (op, fe a, fe b))
      | R.ECmpI (op, a, b) -> mk (R.ECmpI (op, fe a, fe b))
      | R.EHoisted h -> mk (R.EHoisted { h with horig = fe h.horig })
    in
    map_block ~fe ~fs:keep
  in
  {
    cp with
    R.cglobals = (rewrite_body env.globals) cp.cglobals;
    cfuncs =
      Array.mapi
        (fun i (f : R.cfunc) ->
          { f with R.cf_body = (rewrite_body env.locals.(i)) f.cf_body })
        cp.cfuncs;
  }

(* ------------------------------------------------------------------ *)
(* Pass 3: dead-slot elimination                                       *)
(* ------------------------------------------------------------------ *)

let dead_pass (stats : stats) (cp : R.t) : R.t =
  let rewrite_func (f : R.cfunc) : R.cfunc =
    let read = Array.make (max 1 f.cf_nslots) false in
    (* parameters are bound at every call: treat them as read so a
       dead-parameter frame slot still receives its value (harmless) —
       only non-parameter temporaries are eligible *)
    Array.iter (fun s -> read.(s) <- true) f.cf_param_slots;
    let mark (e : R.expr) =
      iter_expr
        (fun (e : R.expr) ->
          match e.e with
          | R.EVar (R.Local i) -> read.(i) <- true
          | R.EHoisted h -> read.(h.hslot) <- true
          | _ -> ())
        e
    in
    iter_stmts
      (fun s ->
        List.iter mark (stmt_exprs s);
        match s with
        | R.SAssign { slot = R.Local i; aop; _ } when aop <> Minic.Ast.Set ->
            read.(i) <- true (* compound assign reads its own slot *)
        | R.SFor { slot = R.Local i; _ } -> read.(i) <- true
        | R.SFused { kern; _ } ->
            (* conservative: everything a kernel touches counts as read *)
            read.(kern.R.k_idx_slot) <- true;
            Array.iter (fun (s, _) -> read.(s) <- true) kern.R.k_in;
            Array.iter (fun (s, _) -> read.(s) <- true) kern.R.k_out;
            Array.iter (fun (site : R.ksite) -> read.(site.R.ks_base) <- true) kern.R.k_sites
        | _ -> ())
      f.cf_body;
    let fs (s : R.stmt) : R.stmt option =
      match s with
      | R.SDeclVar { slot = R.Local i; typ; init } when not read.(i) ->
          stats.slots_eliminated <- stats.slots_eliminated + 1;
          Some
            (match init with
            | Some e -> R.SDrop { dtyp = Some typ; drhs = Some e }
            | None -> R.SDrop { dtyp = None; drhs = None })
      | R.SAssign { slot = R.Local i; aop = Minic.Ast.Set; rhs } when not read.(i)
        ->
          stats.slots_eliminated <- stats.slots_eliminated + 1;
          Some (R.SDrop { dtyp = None; drhs = Some rhs })
      | _ -> None
    in
    { f with R.cf_body = map_block ~fe:Fun.id ~fs f.cf_body }
  in
  { cp with R.cfuncs = Array.map rewrite_func cp.cfuncs }

(* ------------------------------------------------------------------ *)
(* Pass 4 helper: static counting of float-pure expressions            *)
(* ------------------------------------------------------------------ *)

(* Shared by hoisting and specialization: an expression is "counted
   float-pure" when its evaluation provably takes only float paths whose
   counter bumps and dynamic charges are statically known, touches no
   memory and calls nothing but implemented math builtins. *)
type counted = { n_flops : int; n_sfu : int; n_dyn : float; n_ops : int }

let czero = { n_flops = 0; n_sfu = 0; n_dyn = 0.0; n_ops = 0 }

let cadd a b =
  {
    n_flops = a.n_flops + b.n_flops;
    n_sfu = a.n_sfu + b.n_sfu;
    n_dyn = a.n_dyn +. b.n_dyn;
    n_ops = a.n_ops + b.n_ops;
  }

exception Not_pure

(* [slot_ok i] decides whether reading local slot [i] is allowed (e.g.
   "not written by the loop body" for hoisting). *)
let count_float_pure env lt ~slot_ok (e : R.expr) : counted =
  let rec go (e : R.expr) : counted =
    match e.e with
    | R.ELit (VInt _ | VFloat _ | VBool _) -> czero
    | R.EVar (R.Local i) -> (
        if not (slot_ok i) then raise Not_pure
        else
          match lt.(i) with
          | TFloat | TInt | TBool -> czero
          | _ -> raise Not_pure)
    | R.EArith (_, fresid, a, b) | R.EArithF (_, fresid, a, b) ->
        let ta = ety env lt a and tb = ety env lt b in
        if not (is_f ta || is_f tb) then raise Not_pure;
        cadd
          (cadd (go a) (go b))
          { n_flops = 1; n_sfu = 0; n_dyn = fresid; n_ops = 1 }
    | R.EDiv (a, b) | R.EDivF (a, b) ->
        let ta = ety env lt a and tb = ety env lt b in
        if not (is_f ta || is_f tb) then raise Not_pure;
        cadd
          (cadd (go a) (go b))
          { n_flops = 1; n_sfu = 0; n_dyn = C.float_div; n_ops = 1 }
    | R.ENeg a ->
        if not (is_f (ety env lt a)) then raise Not_pure;
        cadd (go a) { n_flops = 1; n_sfu = 0; n_dyn = 0.0; n_ops = 1 }
    | R.ECast ((Minic.Ast.Tfloat | Minic.Ast.Tdouble), a) -> (
        match ety env lt a with
        | TFloat | TInt | TBool -> go a
        | _ -> raise Not_pure)
    | R.ECall { callee = R.Math { mimpl; mflops }; cargs } ->
        let arity = match mimpl with R.M1 _ -> 1 | R.M2 _ -> 2 in
        if List.length cargs <> arity then raise Not_pure;
        List.fold_left
          (fun acc a -> cadd acc (go a))
          { n_flops = mflops; n_sfu = 1; n_dyn = 0.0; n_ops = 1 }
          cargs
    | _ -> raise Not_pure
  in
  go e

(* ------------------------------------------------------------------ *)
(* Pass 4: loop-invariant hoisting                                     *)
(* ------------------------------------------------------------------ *)

(* Local slots written by a statement (transitively, through nested
   blocks); used for loop-body invariance. *)
let stmt_writes (b : R.block) : (int, unit) Hashtbl.t =
  let w = Hashtbl.create 16 in
  let add = function R.Local i -> Hashtbl.replace w i () | _ -> () in
  iter_stmts
    (fun s ->
      match s with
      | R.SDeclVar { slot; _ } | R.SDeclArr { slot; _ } | R.SAssign { slot; _ }
        ->
          add slot
      | R.SFor { slot; _ } -> add slot
      | R.SHoistReset slots -> List.iter (fun i -> Hashtbl.replace w i ()) slots
      | R.SFused { kern; forig = _ } ->
          Hashtbl.replace w kern.R.k_idx_slot ();
          Array.iter (fun (s, _) -> Hashtbl.replace w s ()) kern.R.k_out
      | _ -> ())
    b;
  w

let hoist_pass (stats : stats) (cp : R.t) : R.t =
  let env = type_program cp in
  let rewrite_func fi (f : R.cfunc) : R.cfunc =
    let lt = env.locals.(fi) in
    let nslots = ref f.cf_nslots in
    (* hoist within one loop body: wrap maximal eligible subtrees.
       [extra] carries slots written by the looping statement itself —
       an [SFor]'s induction variable is updated by the loop header, not
       by any statement inside the body, so [stmt_writes body] alone
       would wrongly treat index-dependent expressions as invariant. *)
    let hoist_in_body ~(extra : R.var_ref list) (body : R.block) :
        R.block * int list =
      let writes = stmt_writes body in
      List.iter
        (function R.Local i -> Hashtbl.replace writes i () | _ -> ())
        extra;
      let slot_ok i =
        (not (Hashtbl.mem writes i)) && i < Array.length lt
      in
      let fresh = ref [] in
      let rec fe (e : R.expr) : R.expr =
        match e.e with
        (* only float-typed subtrees are cacheable (the cache slot
           discriminates hit/miss on the VFloat constructor) *)
        | R.EHoisted _ | R.EFolded _ | R.ELit _ | R.EVar _ -> e
        | _ -> (
            match
              (try
                 if is_f (ety env lt e) then
                   Some (count_float_pure env lt ~slot_ok e)
                 else None
               with Not_pure -> None)
            with
            | Some c when c.n_ops >= 2 ->
                let hslot = !nslots in
                incr nslots;
                fresh := hslot :: !fresh;
                stats.exprs_hoisted <- stats.exprs_hoisted + 1;
                {
                  e with
                  R.e =
                    R.EHoisted
                      {
                        hslot;
                        h_flops = c.n_flops;
                        h_sfu = c.n_sfu;
                        h_dyn = c.n_dyn;
                        horig = e;
                      };
                }
            | _ -> descend e)
      and descend (e : R.expr) : R.expr =
        let mk en = { e with R.e = en } in
        match e.e with
        | R.ELit _ | R.EVar _ | R.EFolded _ | R.EHoisted _ -> e
        | R.ENeg a -> mk (R.ENeg (fe a))
        | R.ENot a -> mk (R.ENot (fe a))
        | R.ECast (t, a) -> mk (R.ECast (t, fe a))
        | R.EArith (op, fr, a, b) -> mk (R.EArith (op, fr, fe a, fe b))
        | R.EArithF (op, fr, a, b) -> mk (R.EArithF (op, fr, fe a, fe b))
        | R.EArithI (op, a, b) -> mk (R.EArithI (op, fe a, fe b))
        | R.EDiv (a, b) -> mk (R.EDiv (fe a, fe b))
        | R.EDivF (a, b) -> mk (R.EDivF (fe a, fe b))
        | R.EDivI (a, b) -> mk (R.EDivI (fe a, fe b))
        | R.EMod (a, b) -> mk (R.EMod (fe a, fe b))
        | R.ECmp (op, a, b) -> mk (R.ECmp (op, fe a, fe b))
        | R.ECmpF (op, a, b) -> mk (R.ECmpF (op, fe a, fe b))
        | R.ECmpI (op, a, b) -> mk (R.ECmpI (op, fe a, fe b))
        | R.EAnd (a, b) -> mk (R.EAnd (fe a, fe b))
        | R.EOr (a, b) -> mk (R.EOr (fe a, fe b))
        | R.EIndex (a, b) -> mk (R.EIndex (fe a, fe b))
        | R.ECall c -> mk (R.ECall { c with cargs = List.map fe c.cargs })
      in
      let body' = map_block ~fe ~fs:keep body in
      (body', !fresh)
    in
    (* rewrite loops bottom-up is unnecessary: each loop's body is
       hoisted against its own write set, outer loops first, and already
       wrapped [EHoisted] nodes are opaque to inner scans *)
    let rec go_block (b : R.block) : R.block =
      List.map
        (fun (g : R.group) ->
          {
            g with
            R.gstmts = List.concat_map go_stmt g.gstmts;
          })
        b
    and go_stmt (s : R.stmt) : R.stmt list =
      match s with
      | R.SFor sf ->
          let body', fresh = hoist_in_body ~extra:[ sf.slot ] sf.body in
          let body' = go_block body' in
          let s' = R.SFor { sf with body = body' } in
          if fresh = [] then [ s' ]
          else [ R.SHoistReset fresh; s' ]
      | R.SWhile sw ->
          let body', fresh = hoist_in_body ~extra:[] sw.body in
          let body' = go_block body' in
          let s' = R.SWhile { sw with body = body' } in
          if fresh = [] then [ s' ]
          else [ R.SHoistReset fresh; s' ]
      | R.SIf (c, b1, b2) -> [ R.SIf (c, go_block b1, Option.map go_block b2) ]
      | R.SBlock b -> [ R.SBlock (go_block b) ]
      | R.SFused _ ->
          (* specialized kernels stay as-is: their fallback body must
             keep matching the kernel's static counts *)
          [ s ]
      | s -> [ s ]
    in
    { f with R.cf_body = go_block f.cf_body; cf_nslots = !nslots }
  in
  { cp with R.cfuncs = Array.mapi rewrite_func cp.cfuncs }

(* ------------------------------------------------------------------ *)
(* Pass 5: kernel specialization                                       *)
(* ------------------------------------------------------------------ *)

exception Not_kernel

(* Affine integer expression in the loop index: conversion + static
   int-op count (one bump per Add/Sub/Mul evaluation; Neg of an int and
   literal/variable reads bump nothing) + affinity degree. *)
let rec affine env lt ~idx_slot (e : R.expr) : R.iexpr * int * int =
  match e.e with
  | R.ELit (VInt n) -> (R.ILit n, 0, 0)
  | R.EVar (R.Local i) when i = idx_slot -> (R.IIdx, 0, 1)
  | R.EVar (R.Local i) -> (
      match lt.(i) with
      | TInt | TBool -> (R.ISlot i, 0, 0)
      | _ -> raise Not_kernel)
  | R.EArith ((Minic.Ast.Add as op), _, a, b)
  | R.EArith ((Minic.Ast.Sub as op), _, a, b)
  | R.EArith ((Minic.Ast.Mul as op), _, a, b)
  | R.EArithI ((Minic.Ast.Add as op), a, b)
  | R.EArithI ((Minic.Ast.Sub as op), a, b)
  | R.EArithI ((Minic.Ast.Mul as op), a, b) -> (
      let ta = ety env lt a and tb = ety env lt b in
      if not (not_f ta && not_f tb) then raise Not_kernel;
      let ia, na, da = affine env lt ~idx_slot a in
      let ib, nb, db = affine env lt ~idx_slot b in
      match op with
      | Minic.Ast.Add -> (R.IAdd (ia, ib), na + nb + 1, max da db)
      | Minic.Ast.Sub -> (R.ISub (ia, ib), na + nb + 1, max da db)
      | Minic.Ast.Mul ->
          if da + db > 1 then raise Not_kernel;
          (R.IMul (ia, ib), na + nb + 1, da + db)
      | _ -> assert false)
  | R.ENeg a -> (
      match ety env lt a with
      | TInt ->
          let ia, na, da = affine env lt ~idx_slot a in
          (R.INeg ia, na, da)
      | _ -> raise Not_kernel)
  | R.EFolded { fval = VInt n; f_flops = 0; f_int_ops; f_dyn = 0.0 } ->
      (R.ILit n, f_int_ops, 0)
  | _ -> raise Not_kernel

(* Degree-0 affine expressions for init/bound/step: may not reference
   the loop's own index. *)
let invariant_int env lt ~idx_slot (e : R.expr) =
  let ie, nops, deg = affine env lt ~idx_slot e in
  if deg <> 0 then raise Not_kernel;
  (ie, nops)

let rec iexpr_slots acc = function
  | R.ILit _ | R.IIdx -> acc
  | R.ISlot i -> i :: acc
  | R.IAdd (a, b) | R.ISub (a, b) | R.IMul (a, b) ->
      iexpr_slots (iexpr_slots acc a) b
  | R.INeg a -> iexpr_slots acc a

(* Translation state for one candidate loop body. *)
type ktrans = {
  mutable instrs : R.kinstr list;  (* reversed *)
  mutable nregs : int;
  mutable sites : (R.ksite * int) list;  (* (site, number), reversed *)
  mutable nsites : int;
  mutable site_loads : (int * int) list;  (* site -> per-iter loads *)
  mutable site_stores : (int * int) list;
  slot_reg : (int, int) Hashtbl.t;  (* float slot -> dedicated register *)
  mutable entry : (int * int) list;  (* (slot, reg) entry loads *)
  mutable written_now : (int, unit) Hashtbl.t;  (* written so far, body order *)
  mutable c : counted;  (* accumulated per-iteration body counts *)
}

let specialize_pass (stats : stats) (cp : R.t) : R.t =
  let env = type_program cp in
  let rewrite_func fi (f : R.cfunc) : R.cfunc =
    let lt = env.locals.(fi) in
    (* attempt to compile one innermost SFor body to a kernel *)
    let try_kernel (sf : (* SFor payload *) int * R.var_ref * R.expr * R.expr * bool * R.expr * R.block) :
        R.kernel option =
      let fsid, slot, init, bound, inclusive, step, body = sf in
      match slot with
      | R.Unbound _ | R.Global _ -> None
      | R.Local idx_slot -> (
          try
            let group =
              match body with
              | [ g ] -> g
              | [] -> raise Not_kernel
              | _ -> raise Not_kernel
            in
            let k =
              {
                instrs = [];
                nregs = 0;
                sites = [];
                nsites = 0;
                site_loads = [];
                site_stores = [];
                slot_reg = Hashtbl.create 8;
                entry = [];
                written_now = Hashtbl.create 8;
                c = czero;
              }
            in
            let fresh_reg () =
              let r = k.nregs in
              k.nregs <- k.nregs + 1;
              r
            in
            let emit i = k.instrs <- i :: k.instrs in
            let bump c = k.c <- cadd k.c c in
            let reg_of_slot s =
              match Hashtbl.find_opt k.slot_reg s with
              | Some r -> r
              | None ->
                  let r = fresh_reg () in
                  Hashtbl.add k.slot_reg s r;
                  r
            in
            (* reading a float slot: entry-load it unless the body has
               already written it (straight-line order) *)
            let read_slot s =
              let r = reg_of_slot s in
              if
                (not (Hashtbl.mem k.written_now s))
                && not (List.mem_assoc s k.entry)
              then k.entry <- (s, r) :: k.entry;
              r
            in
            let new_site base idx_e =
              let ie, nops, _deg = affine env lt ~idx_slot idx_e in
              (* invariant int slots read silently at entry must not be
                 written by the body — the body writes only float slots
                 and the (rejected) index, so a clash means rejection *)
              List.iter
                (fun s ->
                  if s <> idx_slot && not (not_f lt.(s)) then raise Not_kernel)
                (iexpr_slots [] ie);
              let n = k.nsites in
              k.nsites <- k.nsites + 1;
              k.sites <- ({ R.ks_base = base; ks_idx = ie }, n) :: k.sites;
              (n, nops)
            in
            let add_site_load n =
              k.site_loads <-
                (n, (try List.assoc n k.site_loads with Not_found -> 0) + 1)
                :: List.remove_assoc n k.site_loads
            in
            let add_site_store n =
              k.site_stores <-
                (n, (try List.assoc n k.site_stores with Not_found -> 0) + 1)
                :: List.remove_assoc n k.site_stores
            in
            (* per-iteration int-op bumps accumulate here *)
            let int_ops = ref 0 in
            (* compile a float-valued expression into a register *)
            let rec cf (e : R.expr) : int =
              match e.e with
              | R.ELit (VFloat f) ->
                  let r = fresh_reg () in
                  emit (R.KLit (r, f));
                  r
              | R.ELit (VInt n) ->
                  (* consumed via [to_float] in every float context *)
                  let r = fresh_reg () in
                  emit (R.KLit (r, float_of_int n));
                  r
              | R.ELit (VBool b) ->
                  let r = fresh_reg () in
                  emit (R.KLit (r, if b then 1.0 else 0.0));
                  r
              | R.EVar (R.Local i) when i = idx_slot ->
                  let r = fresh_reg () in
                  emit (R.KItoF r);
                  r
              | R.EVar (R.Local i) -> (
                  match lt.(i) with
                  | TFloat -> read_slot i
                  | TInt | TBool ->
                      (* invariant int: the body writes only floats, so
                         its value is fixed — entry-convert it once *)
                      if Hashtbl.mem k.slot_reg i then raise Not_kernel;
                      read_slot i
                  | _ -> raise Not_kernel)
              | R.EArith (op, fresid, a, b) | R.EArithF (op, fresid, a, b) ->
                  let ta = ety env lt a and tb = ety env lt b in
                  if not (is_f ta || is_f tb) then raise Not_kernel;
                  let ra = cf a in
                  let rb = cf b in
                  let rd = fresh_reg () in
                  (match op with
                  | Minic.Ast.Add -> emit (R.KAdd (rd, ra, rb))
                  | Minic.Ast.Sub -> emit (R.KSub (rd, ra, rb))
                  | Minic.Ast.Mul -> emit (R.KMul (rd, ra, rb))
                  | _ -> raise Not_kernel);
                  bump { n_flops = 1; n_sfu = 0; n_dyn = fresid; n_ops = 0 };
                  rd
              | R.EDiv (a, b) | R.EDivF (a, b) ->
                  let ta = ety env lt a and tb = ety env lt b in
                  if not (is_f ta || is_f tb) then raise Not_kernel;
                  let ra = cf a in
                  let rb = cf b in
                  let rd = fresh_reg () in
                  emit (R.KDiv (rd, ra, rb));
                  bump { n_flops = 1; n_sfu = 0; n_dyn = C.float_div; n_ops = 0 };
                  rd
              | R.ENeg a ->
                  if not (is_f (ety env lt a)) then raise Not_kernel;
                  let ra = cf a in
                  let rd = fresh_reg () in
                  emit (R.KNeg (rd, ra));
                  bump { n_flops = 1; n_sfu = 0; n_dyn = 0.0; n_ops = 0 };
                  rd
              | R.ECast ((Minic.Ast.Tfloat | Minic.Ast.Tdouble), a) -> (
                  match a.e with
                  | R.EVar (R.Local i) when i = idx_slot ->
                      let r = fresh_reg () in
                      emit (R.KItoF r);
                      r
                  | _ ->
                      if is_f (ety env lt a) then cf a
                      else (
                        match a.e with
                        | R.EVar (R.Local i) -> (
                            match lt.(i) with
                            | TInt | TBool ->
                                if Hashtbl.mem k.slot_reg i then
                                  raise Not_kernel;
                                read_slot i
                            | _ -> raise Not_kernel)
                        | R.ELit (VInt n) ->
                            let r = fresh_reg () in
                            emit (R.KLit (r, float_of_int n));
                            r
                        | _ -> raise Not_kernel))
              | R.ECall { callee = R.Math { mimpl = R.M1 g; mflops }; cargs }
                -> (
                  match cargs with
                  | [ a ] ->
                      let ra = cf a in
                      let rd = fresh_reg () in
                      emit (R.KMath1 (rd, g, ra));
                      bump
                        { n_flops = mflops; n_sfu = 1; n_dyn = 0.0; n_ops = 0 };
                      rd
                  | _ -> raise Not_kernel)
              | R.ECall { callee = R.Math { mimpl = R.M2 g; mflops }; cargs }
                -> (
                  match cargs with
                  | [ a; b ] ->
                      let ra = cf a in
                      let rb = cf b in
                      let rd = fresh_reg () in
                      emit (R.KMath2 (rd, g, ra, rb));
                      bump
                        { n_flops = mflops; n_sfu = 1; n_dyn = 0.0; n_ops = 0 };
                      rd
                  | _ -> raise Not_kernel)
              | R.EIndex (a, idx_e) -> (
                  match a.e with
                  | R.EVar (R.Local b) -> (
                      match lt.(b) with
                      | TPtr (Minic.Ast.Tfloat | Minic.Ast.Tdouble) ->
                          let n, nops = new_site b idx_e in
                          int_ops := !int_ops + nops;
                          add_site_load n;
                          let rd = fresh_reg () in
                          emit (R.KLoad (rd, n));
                          rd
                      | _ -> raise Not_kernel)
                  | _ -> raise Not_kernel)
              | R.EFolded { fval; f_flops; f_int_ops; f_dyn } -> (
                  match fval with
                  | VFloat fv ->
                      let r = fresh_reg () in
                      emit (R.KLit (r, fv));
                      bump
                        {
                          n_flops = f_flops;
                          n_sfu = 0;
                          n_dyn = f_dyn;
                          n_ops = 0;
                        };
                      int_ops := !int_ops + f_int_ops;
                      r
                  | VInt n ->
                      let r = fresh_reg () in
                      emit (R.KLit (r, float_of_int n));
                      bump
                        {
                          n_flops = f_flops;
                          n_sfu = 0;
                          n_dyn = f_dyn;
                          n_ops = 0;
                        };
                      int_ops := !int_ops + f_int_ops;
                      r
                  | _ -> raise Not_kernel)
              | _ -> raise Not_kernel
            in
            let mark_written s = Hashtbl.replace k.written_now s () in
            let do_stmt (s : R.stmt) =
              match s with
              | R.SDeclVar
                  {
                    slot = R.Local s;
                    typ = Minic.Ast.Tfloat | Minic.Ast.Tdouble;
                    init = Some e;
                  } ->
                  if s = idx_slot then raise Not_kernel;
                  let r = cf e in
                  let rd = reg_of_slot s in
                  emit (R.KMov (rd, r));
                  mark_written s
              | R.SAssign { slot = R.Local s; aop; rhs } -> (
                  if s = idx_slot then raise Not_kernel;
                  if not (is_f lt.(s)) then raise Not_kernel;
                  if not (is_f (ety env lt rhs)) then raise Not_kernel;
                  match aop with
                  | Minic.Ast.Set ->
                      let r = cf rhs in
                      let rd = reg_of_slot s in
                      emit (R.KMov (rd, r));
                      mark_written s
                  | Minic.Ast.AddEq | Minic.Ast.SubEq | Minic.Ast.MulEq
                  | Minic.Ast.DivEq ->
                      let r = cf rhs in
                      let rd = read_slot s in
                      (match aop with
                      | Minic.Ast.AddEq ->
                          emit (R.KAdd (rd, rd, r));
                          bump { n_flops = 1; n_sfu = 0; n_dyn = 0.0; n_ops = 0 }
                      | Minic.Ast.SubEq ->
                          emit (R.KSub (rd, rd, r));
                          bump { n_flops = 1; n_sfu = 0; n_dyn = 0.0; n_ops = 0 }
                      | Minic.Ast.MulEq ->
                          emit (R.KMul (rd, rd, r));
                          bump { n_flops = 1; n_sfu = 0; n_dyn = 0.0; n_ops = 0 }
                      | Minic.Ast.DivEq ->
                          emit (R.KDiv (rd, rd, r));
                          bump
                            {
                              n_flops = 1;
                              n_sfu = 0;
                              n_dyn = C.float_div;
                              n_ops = 0;
                            }
                      | Minic.Ast.Set -> assert false);
                      mark_written s)
              | R.SStore { arr; idx; aop; rhs } -> (
                  match arr.e with
                  | R.EVar (R.Local b) -> (
                      match lt.(b) with
                      | TPtr (Minic.Ast.Tfloat | Minic.Ast.Tdouble) -> (
                          if not (is_f (ety env lt rhs)) then raise Not_kernel;
                          (* evaluation order: rhs, then arr/idx *)
                          let r = cf rhs in
                          let n, nops = new_site b idx in
                          int_ops := !int_ops + nops;
                          match aop with
                          | Minic.Ast.Set ->
                              emit (R.KStore (n, r));
                              add_site_store n
                          | Minic.Ast.AddEq ->
                              emit (R.KStoreAdd (n, r));
                              add_site_load n;
                              add_site_store n;
                              bump
                                {
                                  n_flops = 1;
                                  n_sfu = 0;
                                  n_dyn = 0.0;
                                  n_ops = 0;
                                }
                          | Minic.Ast.SubEq ->
                              emit (R.KStoreSub (n, r));
                              add_site_load n;
                              add_site_store n;
                              bump
                                {
                                  n_flops = 1;
                                  n_sfu = 0;
                                  n_dyn = 0.0;
                                  n_ops = 0;
                                }
                          | Minic.Ast.MulEq ->
                              emit (R.KStoreMul (n, r));
                              add_site_load n;
                              add_site_store n;
                              bump
                                {
                                  n_flops = 1;
                                  n_sfu = 0;
                                  n_dyn = 0.0;
                                  n_ops = 0;
                                }
                          | Minic.Ast.DivEq ->
                              emit (R.KStoreDiv (n, r));
                              add_site_load n;
                              add_site_store n;
                              bump
                                {
                                  n_flops = 1;
                                  n_sfu = 0;
                                  n_dyn = C.float_div;
                                  n_ops = 0;
                                })
                      | _ -> raise Not_kernel)
                  | _ -> raise Not_kernel)
              | _ -> raise Not_kernel
            in
            List.iter do_stmt group.R.gstmts;
            let ie_init, init_ops = invariant_int env lt ~idx_slot init in
            let ie_bound, bound_ops = invariant_int env lt ~idx_slot bound in
            let ie_step, step_ops = invariant_int env lt ~idx_slot step in
            (* bound/step slots must be loop-invariant: the body writes
               only float slots, and silent slots are int-typed, so any
               overlap was already rejected; the index slot itself may
               not appear (checked by [invariant_int]) *)
            List.iter
              (fun s -> if Hashtbl.mem k.written_now s then raise Not_kernel)
              (iexpr_slots
                 (iexpr_slots (iexpr_slots [] ie_init) ie_bound)
                 ie_step);
            let nstmts = List.length group.R.gstmts in
            let sites =
              let a = Array.make k.nsites { R.ks_base = 0; ks_idx = R.ILit 0 } in
              List.iter (fun (s, n) -> a.(n) <- s) k.sites;
              a
            in
            let site_counts assoc =
              Array.init k.nsites (fun n ->
                  try List.assoc n assoc with Not_found -> 0)
            in
            let out =
              Hashtbl.fold
                (fun s r acc ->
                  if Hashtbl.mem k.written_now s then (s, r) :: acc else acc)
                k.slot_reg []
              |> List.sort compare
            in
            stats.kernels_specialized <- stats.kernels_specialized + 1;
            Some
              {
                R.k_body = Array.of_list (List.rev k.instrs);
                k_nfregs = k.nregs;
                k_sites = sites;
                k_site_loads = site_counts k.site_loads;
                k_site_stores = site_counts k.site_stores;
                k_in = Array.of_list (List.rev k.entry);
                k_out = Array.of_list out;
                k_idx_slot = idx_slot;
                k_fsid = fsid;
                k_inclusive = inclusive;
                k_init = ie_init;
                k_bound = ie_bound;
                k_step = ie_step;
                k_nstmts = nstmts;
                k_flops = k.c.n_flops;
                k_sfu = k.c.n_sfu;
                k_int_ops = !int_ops;
                k_init_int_ops = init_ops;
                k_bound_int_ops = bound_ops;
                k_step_int_ops = step_ops;
                k_dyn_cycles = k.c.n_dyn;
                k_gcost = group.R.gcost;
                k_icost = init.R.ecost;
                k_bcost = C.branch +. bound.R.ecost;
                k_scost = step.R.ecost;
              }
          with Not_kernel -> None)
    in
    let rec has_loop (b : R.block) =
      let found = ref false in
      iter_stmts
        (fun s ->
          match s with
          | R.SFor _ | R.SWhile _ | R.SFused _ -> found := true
          | _ -> ())
        b;
      !found
    and go_block (b : R.block) : R.block =
      List.map
        (fun (g : R.group) ->
          { g with R.gstmts = List.map go_stmt g.gstmts })
        b
    and go_stmt (s : R.stmt) : R.stmt =
      match s with
      | R.SFor sf -> (
          let body' = go_block sf.body in
          let s' = R.SFor { sf with body = body' } in
          if has_loop body' then s'
          else
            match
              try_kernel
                ( sf.fsid,
                  sf.slot,
                  sf.init,
                  sf.bound,
                  sf.inclusive,
                  sf.step,
                  body' )
            with
            | Some kern -> R.SFused { forig = s'; kern }
            | None -> s')
      | R.SWhile sw -> R.SWhile { sw with body = go_block sw.body }
      | R.SIf (c, b1, b2) -> R.SIf (c, go_block b1, Option.map go_block b2)
      | R.SBlock b -> R.SBlock (go_block b)
      | s -> s
    in
    { f with R.cf_body = go_block f.cf_body }
  in
  { cp with R.cfuncs = Array.mapi rewrite_func cp.cfuncs }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let publish (s : stats) =
  let m = Flow_obs.Metrics.global in
  let bump name v = if v > 0 then Flow_obs.Metrics.incr ~by:v m name in
  bump "opt_consts_folded" s.consts_folded;
  bump "opt_ops_strength_reduced" s.ops_strength_reduced;
  bump "opt_slots_eliminated" s.slots_eliminated;
  bump "opt_exprs_hoisted" s.exprs_hoisted;
  bump "opt_kernels_specialized" s.kernels_specialized

let optimize ?(config = all_passes) (cp : R.t) : R.t =
  let stats =
    {
      consts_folded = 0;
      ops_strength_reduced = 0;
      slots_eliminated = 0;
      exprs_hoisted = 0;
      kernels_specialized = 0;
    }
  in
  let cp = if config.fold then fold_pass stats cp else cp in
  let cp = if config.strength then strength_pass stats cp else cp in
  let cp = if config.dead then dead_pass stats cp else cp in
  let cp = if config.specialize then specialize_pass stats cp else cp in
  let cp = if config.hoist then hoist_pass stats cp else cp in
  publish stats;
  cp

