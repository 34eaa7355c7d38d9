(** One-time slot resolution: the interpreter fast path.

    Compiles a {!Minic.Ast.program} into an internal representation in
    which

    - every variable reference is an integer index ([Local]/[Global])
      into a pre-sized [Value.t array] frame, replacing the per-access
      [(string, Value.t ref) Hashtbl] lookups of the original tree
      walker;
    - every call site is pre-resolved to a user function index or a
      builtin ([Math]/[Rand01]/[Print_int]/...), eliminating the
      per-call name classification and string surgery;
    - the statically-known virtual-cycle cost of every expression
      ([ecost]) and statement is pre-computed, and straight-line runs of
      statements are batched into {!group}s whose summed cost is charged
      once at group entry instead of operation by operation.

    Batching is observation-safe: cycle totals are read mid-run only at
    timer start/stop hooks, loop entry/exit (per-loop [cycles] deltas)
    and focus-call boundaries.  Groups therefore break after every
    compound statement (If/For/While/Block/Return) and after any
    statement that may fire a timer hook — including statements calling
    a user function that transitively reaches [__timer_start]/
    [__timer_stop] (see {!timer_reach}).  Within a group no observation
    point exists, so moving charges to group entry changes no
    observable.  Because every {!Profile.Cost} constant is an
    integer-valued float, re-associating the additions is exact and the
    resulting profiles are bit-identical to the per-statement charging
    scheme.

    Known (intentional) divergences from the old tree walker, both
    rejected by the type checker and exercised by no benchmark:
    use-before-declaration of a local now reads the slot's [VUnit]
    instead of falling back to a same-named global, and re-declaring a
    [for] index inside its own loop body aliases the loop's slot. *)

module C = Profile.Cost

type var_ref =
  | Local of int  (** index into the current frame *)
  | Global of int  (** index into the global frame *)
  | Unbound of string  (** unknown name: runtime error when accessed *)

type math_impl = M1 of (float -> float) | M2 of (float -> float -> float)

(** Pre-resolved call target. *)
type callee =
  | User of int  (** index into {!t.cfuncs} *)
  | Math of { mimpl : math_impl; mflops : int }
  | Math_unimpl of string  (** math builtin with no interpretation *)
  | Rand01
  | Rand_int
  | Print_int
  | Print_float
  | Timer_start
  | Timer_stop
  | Unknown of string  (** unknown function: runtime error when called *)

(* ------------------------------------------------------------------ *)
(* Optimizer extensions                                                *)
(* ------------------------------------------------------------------ *)

(* The constructors and kernel types below are never produced by
   [compile]; only the slot-IR optimizer ({!Opt}) builds them.  Both
   execution engines (the bytecode VM and the reference walker in
   {!Eval}) interpret them, and every one carries enough statically
   counted information to replay the exact counter bumps and dynamic
   cycle charges of the unoptimized form — see DESIGN.md §13. *)

(** Silent integer expression, evaluated by the specialized-kernel entry
    protocol without charging cycles or bumping counters (those are
    charged in bulk from statically counted totals).  [IIdx] is the
    current loop index; [ISlot] reads a local slot with [Value.to_int]
    semantics and aborts to the generic loop on non-numeric values. *)
type iexpr =
  | ILit of int
  | IIdx
  | ISlot of int
  | IAdd of iexpr * iexpr
  | ISub of iexpr * iexpr
  | IMul of iexpr * iexpr
  | INeg of iexpr

(** One float-register instruction of a specialized loop body.
    Registers index a per-invocation [float array]; memory accesses go
    through numbered {!ksite}s whose element offsets advance by a
    constant stride per iteration. *)
type kinstr =
  | KLit of int * float  (** dst <- constant *)
  | KMov of int * int
  | KAdd of int * int * int  (** dst, a, b *)
  | KSub of int * int * int
  | KMul of int * int * int
  | KDiv of int * int * int
  | KNeg of int * int
  | KItoF of int  (** dst <- float of the current loop index *)
  | KMath1 of int * (float -> float) * int
  | KMath2 of int * (float -> float -> float) * int * int
  | KLoad of int * int  (** dst <- site *)
  | KStore of int * int  (** site <- src ([Set]) *)
  | KStoreAdd of int * int  (** site (+)= src *)
  | KStoreSub of int * int
  | KStoreMul of int * int
  | KStoreDiv of int * int

(** One memory-access site: base-pointer slot plus an element index
    affine in the loop variable. *)
type ksite = { ks_base : int; ks_idx : iexpr }

(** A specialized innermost counted loop: straight-line float body over
    register banks and affine sites.  All per-iteration virtual costs
    are pre-counted so the executor can charge [n] iterations in bulk,
    bit-identically to the generic loop. *)
type kernel = {
  k_body : kinstr array;
  k_nfregs : int;
  k_sites : ksite array;
  k_site_loads : int array;  (** per-iteration load accesses, per site *)
  k_site_stores : int array;  (** per-iteration store accesses, per site *)
  k_in : (int * int) array;  (** (slot, freg) read at loop entry *)
  k_out : (int * int) array;  (** (slot, freg) written back at loop exit *)
  k_idx_slot : int;
  k_fsid : int;
  k_inclusive : bool;
  k_init : iexpr;
  k_bound : iexpr;
  k_step : iexpr;
  k_nstmts : int;  (** body statements: fuel per iteration is [1 + k_nstmts] *)
  k_flops : int;  (** per-iteration flop bumps of the body *)
  k_sfu : int;  (** per-iteration SFU-op bumps *)
  k_int_ops : int;  (** per-iteration int-op bumps (body + index exprs) *)
  k_init_int_ops : int;
  k_bound_int_ops : int;  (** bumped [n+1] times, once per bound check *)
  k_step_int_ops : int;
  k_dyn_cycles : float;  (** per-iteration dynamic cycle charges *)
  k_gcost : float;  (** body group's static cost *)
  k_icost : float;  (** init expression's static cost *)
  k_bcost : float;  (** branch + bound cost, charged [n+1] times *)
  k_scost : float;  (** step expression's static cost *)
}

(** [ecost] is the statically-known cycle cost of evaluating the
    expression once; dynamic residues (float vs int arithmetic, division,
    short-circuit right operands, callee bodies) are charged at run
    time. *)
type expr = { ecost : float; e : enode }

and enode =
  | ELit of Value.t
  | EVar of var_ref
  | ENeg of expr
  | ENot of expr
  | EArith of Minic.Ast.binop * float * expr * expr
      (** Add/Sub/Mul; the [float] is the extra cost charged when the
          operation turns out to be floating-point *)
  | EDiv of expr * expr
  | EMod of expr * expr
  | ECmp of Minic.Ast.binop * expr * expr
  | EAnd of expr * expr
  | EOr of expr * expr
  | EIndex of expr * expr
  | ECast of Minic.Ast.typ * expr
  | ECall of { callee : callee; cargs : expr list }
  | EFolded of { fval : Value.t; f_flops : int; f_int_ops : int; f_dyn : float }
      (** constant-folded subtree: yields [fval] while replaying the
          folded subtree's counter bumps and dynamic cycle charges
          (the static [ecost] of the subtree is kept on the node) *)
  | EArithF of Minic.Ast.binop * float * expr * expr
      (** [EArith] whose float path is statically known to be taken *)
  | EArithI of Minic.Ast.binop * expr * expr
      (** [EArith] whose int path is statically known to be taken *)
  | EDivF of expr * expr
  | EDivI of expr * expr
  | ECmpF of Minic.Ast.binop * expr * expr
  | ECmpI of Minic.Ast.binop * expr * expr
  | EHoisted of {
      hslot : int;  (** hidden cache slot, reset by {!SHoistReset} *)
      h_flops : int;
      h_sfu : int;
      h_dyn : float;
      horig : expr;
    }
      (** loop-invariant float subtree: first evaluation per loop
          invocation runs [horig] and caches the result; later ones
          replay the counted bumps and return the cached value *)

type stmt =
  | SDeclVar of { slot : var_ref; typ : Minic.Ast.typ; init : expr option }
  | SDeclArr of {
      slot : var_ref;
      typ : Minic.Ast.typ;
      name : string;
      size : expr;
    }
  | SAssign of { slot : var_ref; aop : Minic.Ast.assign_op; rhs : expr }
  | SStore of {
      arr : expr;
      idx : expr;
      aop : Minic.Ast.assign_op;
      rhs : expr;
    }
  | SExpr of expr
  | SIf of expr * block * block option
  | SWhile of { wsid : int; cond : expr; body : block }
  | SFor of {
      fsid : int;
      slot : var_ref;
      init : expr;
      bound : expr;
      inclusive : bool;
      step : expr;
      body : block;
    }
  | SReturn of expr option
  | SBlock of block
  | SDrop of { dtyp : Minic.Ast.typ option; drhs : expr option }
      (** dead write, kept for its observable effects only: spends one
          fuel unit, evaluates [drhs], and replays the declaration
          coercion's error check without storing the value *)
  | SHoistReset of int list
      (** invalidate {!EHoisted} cache slots; free of fuel and cycles *)
  | SFused of { forig : stmt; kern : kernel }
      (** specialized loop: [kern] runs when its entry preconditions
          hold, else the faithfully compiled [forig] (an {!SFor}) runs;
          both share one loop-stat identity *)

(** Straight-line run of statements whose static cost [gcost] is charged
    once at group entry. *)
and group = { gcost : float; gstmts : stmt list }

and block = group list

type cfunc = {
  cf_name : string;
  cf_params : Minic.Ast.param list;
  cf_param_slots : int array;  (** slot of the i-th parameter *)
  cf_nslots : int;  (** frame size *)
  cf_body : block;
}

(** A compiled program. *)
type t = {
  source : Minic.Ast.program;
  cfuncs : cfunc array;
  cglobals : block;  (** global declarations, run in the global frame *)
  nglobals : int;
  main_idx : int;  (** index of [main], [-1] if absent *)
  func_index : (string, int) Hashtbl.t;  (** first function of each name *)
}

(* ------------------------------------------------------------------ *)
(* Timer reachability                                                  *)
(* ------------------------------------------------------------------ *)

(* [timer_reach p func_index] marks every function that may execute a
   [__timer_start]/[__timer_stop] hook, directly or through calls.
   Statements invoking such functions must end their charge group so
   that batched charges never cross a timer snapshot. *)
let timer_reach (p : Minic.Ast.program) (func_index : (string, int) Hashtbl.t) :
    bool array =
  let open Minic.Ast in
  let n = List.length p.funcs in
  let reaches = Array.make n false in
  let calls = Array.make n [] in
  List.iteri
    (fun i f ->
      iter_func
        (fun s ->
          List.iter
            (iter_expr (fun e ->
                 match e.enode with
                 | Call (name, _) -> (
                     (* a user function shadows a builtin of the same
                        name, exactly as at run time *)
                     match Hashtbl.find_opt func_index name with
                     | Some j -> calls.(i) <- j :: calls.(i)
                     | None ->
                         if name = "__timer_start" || name = "__timer_stop"
                         then reaches.(i) <- true)
                 | _ -> ()))
            (stmt_exprs s))
        f)
    p.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i cs ->
        if (not reaches.(i)) && List.exists (fun j -> reaches.(j)) cs then (
          reaches.(i) <- true;
          changed := true))
      calls
  done;
  reaches

let rec expr_may_time mt (e : expr) =
  match e.e with
  | ELit _ | EVar _ -> false
  | ENeg a | ENot a | ECast (_, a) -> expr_may_time mt a
  | EFolded _ -> false
  | EHoisted h -> expr_may_time mt h.horig
  | EArith (_, _, a, b)
  | EArithF (_, _, a, b)
  | EArithI (_, a, b)
  | EDiv (a, b)
  | EDivF (a, b)
  | EDivI (a, b)
  | EMod (a, b)
  | ECmp (_, a, b)
  | ECmpF (_, a, b)
  | ECmpI (_, a, b)
  | EAnd (a, b)
  | EOr (a, b)
  | EIndex (a, b) ->
      expr_may_time mt a || expr_may_time mt b
  | ECall { callee; cargs } ->
      (match callee with
      | Timer_start | Timer_stop -> true
      | User j -> mt.(j)
      | _ -> false)
      || List.exists (expr_may_time mt) cargs

(* ------------------------------------------------------------------ *)
(* Math builtin resolution                                             *)
(* ------------------------------------------------------------------ *)

(* Drop the '__' prefix of GPU intrinsics and the 'f' single-precision
   suffix to recover the base math function (mirrors the old
   interpreter's per-call string surgery, now done once at compile
   time). *)
let strip_math n =
  let n =
    if String.length n > 2 && String.sub n 0 2 = "__" then
      String.sub n 2 (String.length n - 2)
    else n
  in
  if String.length n > 1 && n.[String.length n - 1] = 'f' then
    String.sub n 0 (String.length n - 1)
  else n

let math_impl = function
  | "sqrt" | "fsqrt" -> Some (M1 Float.sqrt)
  | "exp" -> Some (M1 Float.exp)
  | "log" -> Some (M1 Float.log)
  | "sin" -> Some (M1 Float.sin)
  | "cos" -> Some (M1 Float.cos)
  | "tanh" -> Some (M1 Float.tanh)
  | "pow" -> Some (M2 Float.pow)
  | "fabs" -> Some (M1 Float.abs)
  | "floor" -> Some (M1 Float.floor)
  | "fmin" -> Some (M2 Float.min)
  | "fmax" -> Some (M2 Float.max)
  | "fdivide" -> Some (M2 ( /. ))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type scope = {
  sc_locals : (string, int) Hashtbl.t option;  (* None for the globals block *)
  sc_globals : (string, int) Hashtbl.t;
  sc_funcs : (string, int) Hashtbl.t;
  sc_may_time : bool array;
}

let resolve_var sc name =
  let global () =
    match Hashtbl.find_opt sc.sc_globals name with
    | Some i -> Global i
    | None -> Unbound name
  in
  match sc.sc_locals with
  | None -> global ()
  | Some locals -> (
      match Hashtbl.find_opt locals name with
      | Some i -> Local i
      | None -> global ())

let rec compile_expr sc (e : Minic.Ast.expr) : expr =
  let open Minic.Ast in
  match e.enode with
  | Int_lit n -> { ecost = 0.0; e = ELit (Value.VInt n) }
  | Float_lit (f, _) -> { ecost = 0.0; e = ELit (Value.VFloat f) }
  | Bool_lit b -> { ecost = 0.0; e = ELit (Value.VBool b) }
  | Var v -> { ecost = 0.0; e = EVar (resolve_var sc v) }
  | Unop (Neg, a) ->
      let a = compile_expr sc a in
      { ecost = C.int_op +. a.ecost; e = ENeg a }
  | Unop (Not, a) ->
      let a = compile_expr sc a in
      { ecost = C.int_op +. a.ecost; e = ENot a }
  | Binop (LAnd, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      (* the right operand's cost is charged only if it is evaluated *)
      { ecost = C.int_op +. a.ecost; e = EAnd (a, b) }
  | Binop (LOr, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      { ecost = C.int_op +. a.ecost; e = EOr (a, b) }
  | Binop (((Add | Sub) as op), a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      {
        ecost = C.int_op +. a.ecost +. b.ecost;
        e = EArith (op, C.float_add -. C.int_op, a, b);
      }
  | Binop (Mul, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      {
        ecost = C.int_op +. a.ecost +. b.ecost;
        e = EArith (Mul, C.float_mul -. C.int_op, a, b);
      }
  | Binop (Div, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      (* int vs float division costs differ: charged entirely at run time *)
      { ecost = a.ecost +. b.ecost; e = EDiv (a, b) }
  | Binop (Mod, a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      { ecost = C.int_op +. a.ecost +. b.ecost; e = EMod (a, b) }
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      let a = compile_expr sc a and b = compile_expr sc b in
      { ecost = C.int_op +. a.ecost +. b.ecost; e = ECmp (op, a, b) }
  | Index (a, i) ->
      let a = compile_expr sc a and i = compile_expr sc i in
      { ecost = C.int_op +. C.load +. a.ecost +. i.ecost; e = EIndex (a, i) }
  | Cast (t, a) ->
      let a = compile_expr sc a in
      { ecost = a.ecost; e = ECast (t, a) }
  | Call (fname, args) -> compile_call sc fname args

and compile_call sc fname args =
  let cargs = List.map (compile_expr sc) args in
  let argcost = List.fold_left (fun acc (a : expr) -> acc +. a.ecost) 0.0 cargs in
  let mk ecost callee = { ecost; e = ECall { callee; cargs } } in
  match Hashtbl.find_opt sc.sc_funcs fname with
  | Some idx -> mk (argcost +. C.call) (User idx)
  | None -> (
      match Minic.Builtins.cost_class fname with
      | Some cls -> (
          let base = strip_math fname in
          match math_impl base with
          | Some mimpl ->
              mk
                (argcost +. C.math_call cls)
                (Math { mimpl; mflops = Minic.Builtins.flops_of_class cls })
          | None -> mk argcost (Math_unimpl base))
      | None -> (
          match (fname, List.length cargs) with
          | "rand01", 0 -> mk (argcost +. C.call) Rand01
          | "rand_int", 1 -> mk (argcost +. C.call) Rand_int
          | "print_int", 1 -> mk argcost Print_int
          | "print_float", 1 -> mk argcost Print_float
          | "__timer_start", 1 -> mk argcost Timer_start
          | "__timer_stop", 1 -> mk argcost Timer_stop
          | _ -> mk argcost (Unknown fname)))

(* compile_stmt returns (compiled stmt, static cost, ends-charge-group) *)
let rec compile_stmt sc (s : Minic.Ast.stmt) : stmt * float * bool =
  let open Minic.Ast in
  let mt = sc.sc_may_time in
  match s.snode with
  | Decl d -> (
      let slot = resolve_var sc d.dname in
      match d.dsize with
      | Some size_e ->
          let size = compile_expr sc size_e in
          ( SDeclArr { slot; typ = d.dtyp; name = d.dname; size },
            size.ecost,
            expr_may_time mt size )
      | None ->
          let init = Option.map (compile_expr sc) d.dinit in
          let icost, brk =
            match init with
            | Some e -> (e.ecost, expr_may_time mt e)
            | None -> (0.0, false)
          in
          (SDeclVar { slot; typ = d.dtyp; init }, icost, brk))
  | Assign (Lvar v, aop, e) ->
      let rhs = compile_expr sc e in
      let opc =
        match aop with
        | AddEq | SubEq | MulEq -> C.int_op
        | Set | DivEq -> 0.0
      in
      ( SAssign { slot = resolve_var sc v; aop; rhs },
        rhs.ecost +. opc,
        expr_may_time mt rhs )
  | Assign (Lindex (a, i), aop, e) ->
      let rhs = compile_expr sc e in
      let arr = compile_expr sc a in
      let idx = compile_expr sc i in
      let opc =
        match aop with
        | Set -> 0.0
        | AddEq | SubEq | MulEq -> C.load +. C.int_op
        | DivEq -> C.load
      in
      ( SStore { arr; idx; aop; rhs },
        rhs.ecost +. arr.ecost +. idx.ecost +. C.int_op +. C.store +. opc,
        expr_may_time mt rhs || expr_may_time mt arr || expr_may_time mt idx )
  | Expr_stmt e ->
      let ce = compile_expr sc e in
      (SExpr ce, ce.ecost, expr_may_time mt ce)
  | If (c, b1, b2) ->
      let c = compile_expr sc c in
      ( SIf (c, compile_block sc b1, Option.map (compile_block sc) b2),
        C.branch +. c.ecost,
        true )
  | While (c, b) ->
      (* loops charge internally (entry branch, per-iteration costs) so
         that the per-loop cycle window stays exact *)
      ( SWhile { wsid = s.sid; cond = compile_expr sc c; body = compile_block sc b },
        0.0,
        true )
  | For (h, b) ->
      ( SFor
          {
            fsid = s.sid;
            slot = resolve_var sc h.index;
            init = compile_expr sc h.init;
            bound = compile_expr sc h.bound;
            inclusive = h.inclusive;
            step = compile_expr sc h.step;
            body = compile_block sc b;
          },
        0.0,
        true )
  | Return eo ->
      let ce = Option.map (compile_expr sc) eo in
      (SReturn ce, (match ce with Some e -> e.ecost | None -> 0.0), true)
  | Block b -> (SBlock (compile_block sc b), 0.0, true)

and compile_block sc (b : Minic.Ast.block) : block =
  let groups = ref [] in
  let cur = ref [] in
  let cur_cost = ref 0.0 in
  let flush () =
    if !cur <> [] then (
      groups := { gcost = !cur_cost; gstmts = List.rev !cur } :: !groups;
      cur := [];
      cur_cost := 0.0)
  in
  List.iter
    (fun s ->
      let cs, scost, brk = compile_stmt sc s in
      cur := cs :: !cur;
      cur_cost := !cur_cost +. scost;
      if brk then flush ())
    b;
  flush ();
  List.rev !groups

let compile_func sc_globals sc_funcs mt (f : Minic.Ast.func) : cfunc =
  let locals = Hashtbl.create 16 in
  let n = ref 0 in
  let add name =
    if not (Hashtbl.mem locals name) then (
      Hashtbl.add locals name !n;
      incr n)
  in
  List.iter (fun (p : Minic.Ast.param) -> add p.pname_) f.fparams;
  Minic.Ast.iter_func
    (fun s ->
      match s.snode with
      | Decl d -> add d.dname
      | For (h, _) -> add h.index
      | _ -> ())
    f;
  let sc =
    { sc_locals = Some locals; sc_globals; sc_funcs; sc_may_time = mt }
  in
  {
    cf_name = f.fname;
    cf_params = f.fparams;
    cf_param_slots =
      Array.of_list
        (List.map
           (fun (p : Minic.Ast.param) -> Hashtbl.find locals p.pname_)
           f.fparams);
    cf_nslots = !n;
    cf_body = compile_block sc f.fbody;
  }

let compile (p : Minic.Ast.program) : t =
  let sc_funcs = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Minic.Ast.func) ->
      (* first function of each name wins, like find_func_opt *)
      if not (Hashtbl.mem sc_funcs f.fname) then Hashtbl.add sc_funcs f.fname i)
    p.funcs;
  let mt = timer_reach p sc_funcs in
  let sc_globals = Hashtbl.create 16 in
  let ng = ref 0 in
  let addg name =
    if not (Hashtbl.mem sc_globals name) then (
      Hashtbl.add sc_globals name !ng;
      incr ng)
  in
  List.iter
    (Minic.Ast.iter_stmt (fun s ->
         match s.snode with
         | Decl d -> addg d.dname
         | For (h, _) -> addg h.index
         | _ -> ()))
    p.globals;
  let gsc =
    { sc_locals = None; sc_globals; sc_funcs; sc_may_time = mt }
  in
  let cglobals = compile_block gsc p.globals in
  let cfuncs = Array.of_list (List.map (compile_func sc_globals sc_funcs mt) p.funcs) in
  {
    source = p;
    cfuncs;
    cglobals;
    nglobals = !ng;
    main_idx =
      (match Hashtbl.find_opt sc_funcs "main" with Some i -> i | None -> -1);
    func_index = sc_funcs;
  }
