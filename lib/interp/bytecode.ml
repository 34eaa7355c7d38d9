(** Flat register-bytecode lowering of the slot IR.

    {!lower} compiles a resolved (and usually {!Opt}-optimized) program
    into dense instruction arrays with integer-register operands — the
    VM executor in {!Eval} dispatches over them with a single [match]
    per instruction instead of one OCaml closure call per IR node.
    Frames are flat [Value.t array]s laid out [slots | consts | temps]:
    variable slots keep their {!Resolve} indices, literal operands are
    blitted from a per-function constant pool at call entry, and
    expression temporaries are allocated monotonically per statement.

    Specialized loop kernels ({!Resolve.kernel}) are lowered a second
    time into micro-programs of {!kop}s.  A profile-guided
    superinstruction selector additionally rewrites the micro-programs
    of {e hot} loops (per the [hot] predicate, typically
    {!hot_of_profile} over a {!Fused_profile} run):

    - [KLit] constants and loop-invariant loads are hoisted out of the
      body into entry banks ([kp_lits]/[kp_prefetch]);
    - adjacent producer/consumer pairs whose link register is written
      and read exactly once are fused into single opcodes
      (load+arith, arith+arith, arith+store, math+div/mul, and the
      dot-product step [(a*b)+(c*d)]), repeated to fixpoint.

    Fusion never re-associates floating-point arithmetic and never
    reorders memory accesses (only strictly adjacent ops fuse), so the
    fused body computes bit-identical values in bit-identical order.

    Selector and lowering statistics are published to
    {!Flow_obs.Metrics.global} as [vm_*] counters. *)

module R = Resolve
module C = Profile.Cost

(* ================================================================== *)
(* Kernel micro-programs                                               *)
(* ================================================================== *)

(** One micro-op of a specialized loop body.  Plain ops mirror
    {!Resolve.kinstr} one-to-one; the fused ops each replace an
    adjacent pair (or triple, built by repeated pairing) whose link
    register died immediately.  [A]/[B] suffixes say whether the first
    op's result feeds the {e left} or {e right} operand of the second —
    float arithmetic is never commuted. *)
type kop =
  | OLit of int * float
  | OMov of int * int
  | OAdd of int * int * int
  | OSub of int * int * int
  | OMul of int * int * int
  | ODiv of int * int * int
  | ONeg of int * int
  | OItoF of int
  | OMath1 of int * (float -> float) * int
  | OMath2 of int * (float -> float -> float) * int * int
  | OLoad of int * int  (** dst <- site *)
  | OStore of int * int  (** site <- src *)
  | OStoreAdd of int * int
  | OStoreSub of int * int
  | OStoreMul of int * int
  | OStoreDiv of int * int
  (* load + arith *)
  | OLAddA of int * int * int  (** d <- [s] + b *)
  | OLAddB of int * int * int  (** d <- a + [s] *)
  | OLSubA of int * int * int  (** d <- [s] - b *)
  | OLSubB of int * int * int  (** d <- a - [s] *)
  | OLMulA of int * int * int
  | OLMulB of int * int * int
  | OLDivA of int * int * int
  | OLDivB of int * int * int
  (* arith + arith: (d, a, b, c) with A = (a op1 b) op2 c, B = c op2 (a op1 b) *)
  | OAddAddA of int * int * int * int
  | OAddAddB of int * int * int * int
  | OAddSubA of int * int * int * int
  | OAddSubB of int * int * int * int
  | OAddMulA of int * int * int * int
  | OAddMulB of int * int * int * int
  | OSubAddA of int * int * int * int
  | OSubAddB of int * int * int * int
  | OSubSubA of int * int * int * int
  | OSubSubB of int * int * int * int
  | OSubMulA of int * int * int * int
  | OSubMulB of int * int * int * int
  | OMulAddA of int * int * int * int
  | OMulAddB of int * int * int * int
  | OMulSubA of int * int * int * int
  | OMulSubB of int * int * int * int
  | OMulMulA of int * int * int * int
  | OMulMulB of int * int * int * int
  (* math1 + div/mul *)
  | OGDiv of int * (float -> float) * int * int  (** d <- g(a) / b *)
  | ODivG of int * int * (float -> float) * int  (** d <- a / g(b) *)
  | OGMul of int * (float -> float) * int * int  (** d <- g(a) * b *)
  | OMulG of int * int * (float -> float) * int  (** d <- a * g(b) *)
  (* arith + store *)
  | OAddStore of int * int * int  (** [s] <- a + b : (s, a, b) *)
  | OSubStore of int * int * int
  | OMulStore of int * int * int
  | ODivStore of int * int * int
  (* the dot-product step: mul feeding a mul-add accumulator *)
  | OMulMulAdd of int * int * int * int * int  (** d <- (a*b) + (p*q) *)
  (* the 3-D distance idiom: dx*dx + dy*dy + dz*dz (+ softening) *)
  | ODot3 of int * int * int * int * int * int * int
      (** d <- ((a*b) + (p*q)) + (x*y) *)
  | ODot3Add of int * int * int * int * int * int * int * int
      (** d <- (((a*b) + (p*q)) + (x*y)) + e *)

(** A lowered kernel: the original {!Resolve.kernel} (whose statically
    counted totals drive the bulk accounting and whose [k_body] still
    runs verbatim on the focus-tracking path) plus the fused micro-ops
    and their hoisted entry banks. *)
type kprog = {
  kp_kern : R.kernel;
  kp_ops : kop array;
  kp_lits : (int * float) array;  (** entry: freg <- literal *)
  kp_prefetch : (int * int) array;  (** entry: freg <- invariant site load *)
  kp_fused : bool;  (** the superinstruction selector rewrote the body *)
}

(* ================================================================== *)
(* Generic instructions                                                *)
(* ================================================================== *)

(** Comparison kind: operand-dynamic, statically float, statically
    int — mirrors [ECmp]/[ECmpF]/[ECmpI]. *)
type ckind = KDyn | KFlt | KInt

(** One VM instruction.  Register operands index the current frame;
    [tgt] fields hold label ids during lowering and absolute pcs after
    {!lower} resolves them.  Every instruction replays the exact
    charges, counter bumps, fuel spends and error points of the
    reference walker (see DESIGN.md §14). *)
type instr =
  | IFuel
  | ICharge of float
  | IJmp of int
  | IJmpFalse of int * int  (** (src, tgt): jump when [to_bool] is false *)
  | IBrCmp of { op : Minic.Ast.binop; kind : ckind; a : int; b : int; tgt : int }
      (** fused compare+branch: jump to [tgt] when the comparison is false *)
  | IMov of int * int
  | IGetG of int * int  (** dst <- garray.(g) *)
  | ISetG of int * int  (** garray.(g) <- src *)
  | IErrVar of string
  | IErrMsg of string  (** raise a precomputed runtime error *)
  | IFailHd  (** [List.hd []] of the reference engines' builtin paths *)
  | INeg of int * int
  | INot of int * int
  | IArith of { op : Minic.Ast.binop; fresid : float; d : int; a : int; b : int }
  | IArithF of { op : Minic.Ast.binop; fresid : float; d : int; a : int; b : int }
  | IArithI of { op : Minic.Ast.binop; d : int; a : int; b : int }
  | IDiv of int * int * int
  | IDivF of int * int * int
  | IDivI of int * int * int
  | IMod of int * int * int
  | ICmp of { op : Minic.Ast.binop; kind : ckind; d : int; a : int; b : int }
  | ICastI of int * int
  | ICastF of int * int
  | ICastB of int * int
  | IIndex of { d : int; a : int; i : int }
  | IFolded of { d : int; fval : Value.t; f_flops : int; f_int_ops : int; f_dyn : float }
  | IHoisted of {
      glob : bool;
      hslot : int;
      h_flops : int;
      h_sfu : int;
      h_dyn : float;
      d : int;
      tgt : int;
    }  (** cache hit: replay effects, jump [tgt]; miss: fall through *)
  | IHoistSave of { glob : bool; hslot : int; d : int; src : int }
  | IHoistReset of { glob : bool; slots : int array }
  | IAndTest of { d : int; src : int; bcost : float; tgt : int }
  | IOrTest of { d : int; src : int; bcost : float; tgt : int }
  | ICallUser of { d : int; fidx : int; args : int array }
  | IMath1 of { d : int; g : float -> float; mflops : int; a : int }
  | IMath2 of { d : int; g : float -> float -> float; mflops : int; a : int; b : int }
  | IMathGen of { d : int; mimpl : R.math_impl; mflops : int; args : int array }
  | IRand01 of int
  | IRandInt of int * int
  | IPrintInt of int
  | IPrintFloat of int
  | ITimerStart of int
  | ITimerStop of int
  | IAlloc of { d : int; typ : Minic.Ast.typ; name : string; src : int }
  | IApplyAssign of { d : int; aop : Minic.Ast.assign_op; old : int; rhs : int }
  | IStore of { arr : int; idx : int; src : int }
  | IStoreOp of { aop : Minic.Ast.assign_op; arr : int; idx : int; src : int }
  | IDropChk of { co : Minic.Ast.typ; src : int }
  | IRet of int
  | IRetRaise of int  (** [return] in the globals block: raise like both engines *)
  | ILoopEnterW of { lidx : int; sid : int; t0 : int; trips : int }
  | ILoopEnterF of { lidx : int; sid : int; t0 : int; trips : int; icost : float }
  | IWhileIter of { src : int; lidx : int; sid : int; trips : int; tgt : int }
  | IForInit of { slot : R.var_ref; src : int }
  | IForTest of {
      slot : R.var_ref;
      bound : int;
      inclusive : bool;
      lidx : int;
      sid : int;
      trips : int;
      tgt : int;
    }
  | IForStep of { slot : R.var_ref; src : int }
  | ILoopExit of { lidx : int; sid : int; t0 : int; trips : int }
  | IKernel of { glob : bool; lidx : int; kp : kprog; tgt : int }
      (** specialized loop: on kernel success jump [tgt]; on
          [Kernel_unfit] fall through to the generic loop code *)

(** One lowered function (or the globals block). *)
type fn = {
  bc_code : instr array;
  bc_nregs : int;  (** frame size: slots + consts + temps, >= 1 *)
  bc_cbase : int;  (** first constant register *)
  bc_cvals : Value.t array;  (** blitted to [bc_cbase..] at call entry *)
  bc_nsi : int;  (** loop int-scratch slots (trip counters) *)
  bc_nsf : int;  (** loop float-scratch slots (entry cycle stamps) *)
}

type program = {
  bc_cp : R.t;
  bc_funcs : fn array;
  bc_globals : fn;
  bc_nloops : int;  (** dense loop count, sizes the per-run stat cache *)
}

(* ================================================================== *)
(* Kernel lift and the superinstruction selector                       *)
(* ================================================================== *)

let rec invariant_idx = function
  | R.ILit _ | R.ISlot _ -> true
  | R.IIdx -> false
  | R.IAdd (a, b) | R.ISub (a, b) | R.IMul (a, b) ->
      invariant_idx a && invariant_idx b
  | R.INeg a -> invariant_idx a

let kop_of_kinstr = function
  | R.KLit (d, x) -> OLit (d, x)
  | R.KMov (d, a) -> OMov (d, a)
  | R.KAdd (d, a, b) -> OAdd (d, a, b)
  | R.KSub (d, a, b) -> OSub (d, a, b)
  | R.KMul (d, a, b) -> OMul (d, a, b)
  | R.KDiv (d, a, b) -> ODiv (d, a, b)
  | R.KNeg (d, a) -> ONeg (d, a)
  | R.KItoF d -> OItoF d
  | R.KMath1 (d, g, a) -> OMath1 (d, g, a)
  | R.KMath2 (d, g, a, b) -> OMath2 (d, g, a, b)
  | R.KLoad (d, si) -> OLoad (d, si)
  | R.KStore (si, r) -> OStore (si, r)
  | R.KStoreAdd (si, r) -> OStoreAdd (si, r)
  | R.KStoreSub (si, r) -> OStoreSub (si, r)
  | R.KStoreMul (si, r) -> OStoreMul (si, r)
  | R.KStoreDiv (si, r) -> OStoreDiv (si, r)

let kop_writes = function
  | OLit (d, _) | OMov (d, _) | ONeg (d, _) | OItoF d
  | OAdd (d, _, _) | OSub (d, _, _) | OMul (d, _, _) | ODiv (d, _, _)
  | OMath1 (d, _, _) | OMath2 (d, _, _, _) | OLoad (d, _)
  | OLAddA (d, _, _) | OLAddB (d, _, _) | OLSubA (d, _, _) | OLSubB (d, _, _)
  | OLMulA (d, _, _) | OLMulB (d, _, _) | OLDivA (d, _, _) | OLDivB (d, _, _)
  | OAddAddA (d, _, _, _) | OAddAddB (d, _, _, _)
  | OAddSubA (d, _, _, _) | OAddSubB (d, _, _, _)
  | OAddMulA (d, _, _, _) | OAddMulB (d, _, _, _)
  | OSubAddA (d, _, _, _) | OSubAddB (d, _, _, _)
  | OSubSubA (d, _, _, _) | OSubSubB (d, _, _, _)
  | OSubMulA (d, _, _, _) | OSubMulB (d, _, _, _)
  | OMulAddA (d, _, _, _) | OMulAddB (d, _, _, _)
  | OMulSubA (d, _, _, _) | OMulSubB (d, _, _, _)
  | OMulMulA (d, _, _, _) | OMulMulB (d, _, _, _)
  | OGDiv (d, _, _, _) | ODivG (d, _, _, _)
  | OGMul (d, _, _, _) | OMulG (d, _, _, _)
  | OMulMulAdd (d, _, _, _, _)
  | ODot3 (d, _, _, _, _, _, _)
  | ODot3Add (d, _, _, _, _, _, _, _) ->
      Some d
  | OStore _ | OStoreAdd _ | OStoreSub _ | OStoreMul _ | OStoreDiv _
  | OAddStore _ | OSubStore _ | OMulStore _ | ODivStore _ ->
      None

let kop_reads = function
  | OLit _ | OItoF _ | OLoad _ -> []
  | OMov (_, a) | ONeg (_, a) | OMath1 (_, _, a) -> [ a ]
  | OAdd (_, a, b) | OSub (_, a, b) | OMul (_, a, b) | ODiv (_, a, b)
  | OMath2 (_, _, a, b) ->
      [ a; b ]
  | OStore (_, r) | OStoreAdd (_, r) | OStoreSub (_, r) | OStoreMul (_, r)
  | OStoreDiv (_, r) ->
      [ r ]
  | OLAddA (_, _, b) | OLSubA (_, _, b) | OLMulA (_, _, b) | OLDivA (_, _, b)
    ->
      [ b ]
  | OLAddB (_, a, _) | OLSubB (_, a, _) | OLMulB (_, a, _) | OLDivB (_, a, _)
    ->
      [ a ]
  | OAddAddA (_, a, b, c) | OAddAddB (_, a, b, c)
  | OAddSubA (_, a, b, c) | OAddSubB (_, a, b, c)
  | OAddMulA (_, a, b, c) | OAddMulB (_, a, b, c)
  | OSubAddA (_, a, b, c) | OSubAddB (_, a, b, c)
  | OSubSubA (_, a, b, c) | OSubSubB (_, a, b, c)
  | OSubMulA (_, a, b, c) | OSubMulB (_, a, b, c)
  | OMulAddA (_, a, b, c) | OMulAddB (_, a, b, c)
  | OMulSubA (_, a, b, c) | OMulSubB (_, a, b, c)
  | OMulMulA (_, a, b, c) | OMulMulB (_, a, b, c) ->
      [ a; b; c ]
  | OGDiv (_, _, a, b) | OGMul (_, _, a, b) -> [ a; b ]
  | ODivG (_, a, _, b) | OMulG (_, a, _, b) -> [ a; b ]
  | OAddStore (_, a, b) | OSubStore (_, a, b) | OMulStore (_, a, b)
  | ODivStore (_, a, b) ->
      [ a; b ]
  | OMulMulAdd (_, a, b, p, q) -> [ a; b; p; q ]
  | ODot3 (_, a, b, p, q, x, y) -> [ a; b; p; q; x; y ]
  | ODot3Add (_, a, b, p, q, x, y, e) -> [ a; b; p; q; x; y; e ]

(* Retarget a register-writing op's destination.  Total over every op
   with [kop_writes = Some _]; the store-class ops (no register write)
   are never picked as the producer of a link register. *)
let kop_retarget op d =
  match op with
  | OLit (_, x) -> OLit (d, x)
  | OMov (_, a) -> OMov (d, a)
  | OAdd (_, a, b) -> OAdd (d, a, b)
  | OSub (_, a, b) -> OSub (d, a, b)
  | OMul (_, a, b) -> OMul (d, a, b)
  | ODiv (_, a, b) -> ODiv (d, a, b)
  | ONeg (_, a) -> ONeg (d, a)
  | OItoF _ -> OItoF d
  | OMath1 (_, g, a) -> OMath1 (d, g, a)
  | OMath2 (_, g, a, b) -> OMath2 (d, g, a, b)
  | OLoad (_, si) -> OLoad (d, si)
  | OLAddA (_, s, b) -> OLAddA (d, s, b)
  | OLAddB (_, a, s) -> OLAddB (d, a, s)
  | OLSubA (_, s, b) -> OLSubA (d, s, b)
  | OLSubB (_, a, s) -> OLSubB (d, a, s)
  | OLMulA (_, s, b) -> OLMulA (d, s, b)
  | OLMulB (_, a, s) -> OLMulB (d, a, s)
  | OLDivA (_, s, b) -> OLDivA (d, s, b)
  | OLDivB (_, a, s) -> OLDivB (d, a, s)
  | OAddAddA (_, a, b, c) -> OAddAddA (d, a, b, c)
  | OAddAddB (_, a, b, c) -> OAddAddB (d, a, b, c)
  | OAddSubA (_, a, b, c) -> OAddSubA (d, a, b, c)
  | OAddSubB (_, a, b, c) -> OAddSubB (d, a, b, c)
  | OAddMulA (_, a, b, c) -> OAddMulA (d, a, b, c)
  | OAddMulB (_, a, b, c) -> OAddMulB (d, a, b, c)
  | OSubAddA (_, a, b, c) -> OSubAddA (d, a, b, c)
  | OSubAddB (_, a, b, c) -> OSubAddB (d, a, b, c)
  | OSubSubA (_, a, b, c) -> OSubSubA (d, a, b, c)
  | OSubSubB (_, a, b, c) -> OSubSubB (d, a, b, c)
  | OSubMulA (_, a, b, c) -> OSubMulA (d, a, b, c)
  | OSubMulB (_, a, b, c) -> OSubMulB (d, a, b, c)
  | OMulAddA (_, a, b, c) -> OMulAddA (d, a, b, c)
  | OMulAddB (_, a, b, c) -> OMulAddB (d, a, b, c)
  | OMulSubA (_, a, b, c) -> OMulSubA (d, a, b, c)
  | OMulSubB (_, a, b, c) -> OMulSubB (d, a, b, c)
  | OMulMulA (_, a, b, c) -> OMulMulA (d, a, b, c)
  | OMulMulB (_, a, b, c) -> OMulMulB (d, a, b, c)
  | OGDiv (_, g, a, q) -> OGDiv (d, g, a, q)
  | ODivG (_, p, g, a) -> ODivG (d, p, g, a)
  | OGMul (_, g, a, q) -> OGMul (d, g, a, q)
  | OMulG (_, p, g, a) -> OMulG (d, p, g, a)
  | OMulMulAdd (_, a, b, p, q) -> OMulMulAdd (d, a, b, p, q)
  | ODot3 (_, a, b, p, q, x, y) -> ODot3 (d, a, b, p, q, x, y)
  | ODot3Add (_, a, b, p, q, x, y, e) -> ODot3Add (d, a, b, p, q, x, y, e)
  | OStore _ | OStoreAdd _ | OStoreSub _ | OStoreMul _ | OStoreDiv _
  | OAddStore _ | OSubStore _ | OMulStore _ | ODivStore _ ->
      op

(* [fuse_pair t x y]: [x] writes link register [t] (write-once,
   read-once, dead after [y]); [y] immediately follows and is [t]'s
   only reader.  Returns the fused op, preserving operand order and the
   internal memory-access order of the pair. *)
let fuse_pair t x y =
  match (x, y) with
  (* copy elimination: the slot-IR lowering materializes assignments as
     compute-into-temp + move; retargeting the producer's destination is
     exact because [t]'s only read is the move itself *)
  | x, OMov (d, s) when s = t -> Some (kop_retarget x d)
  (* load + arith *)
  | OLoad (_, s), OAdd (d, a, b) ->
      Some (if a = t then OLAddA (d, s, b) else OLAddB (d, a, s))
  | OLoad (_, s), OSub (d, a, b) ->
      Some (if a = t then OLSubA (d, s, b) else OLSubB (d, a, s))
  | OLoad (_, s), OMul (d, a, b) ->
      Some (if a = t then OLMulA (d, s, b) else OLMulB (d, a, s))
  | OLoad (_, s), ODiv (d, a, b) ->
      Some (if a = t then OLDivA (d, s, b) else OLDivB (d, a, s))
  (* arith + store (Set only: rmw stores keep their own load) *)
  | OAdd (_, a, b), OStore (s, _) -> Some (OAddStore (s, a, b))
  | OSub (_, a, b), OStore (s, _) -> Some (OSubStore (s, a, b))
  | OMul (_, a, b), OStore (s, _) -> Some (OMulStore (s, a, b))
  | ODiv (_, a, b), OStore (s, _) -> Some (ODivStore (s, a, b))
  (* arith + arith *)
  | OAdd (_, a, b), OAdd (d, p, q) ->
      Some (if p = t then OAddAddA (d, a, b, q) else OAddAddB (d, a, b, p))
  | OAdd (_, a, b), OSub (d, p, q) ->
      Some (if p = t then OAddSubA (d, a, b, q) else OAddSubB (d, a, b, p))
  | OAdd (_, a, b), OMul (d, p, q) ->
      Some (if p = t then OAddMulA (d, a, b, q) else OAddMulB (d, a, b, p))
  | OSub (_, a, b), OAdd (d, p, q) ->
      Some (if p = t then OSubAddA (d, a, b, q) else OSubAddB (d, a, b, p))
  | OSub (_, a, b), OSub (d, p, q) ->
      Some (if p = t then OSubSubA (d, a, b, q) else OSubSubB (d, a, b, p))
  | OSub (_, a, b), OMul (d, p, q) ->
      Some (if p = t then OSubMulA (d, a, b, q) else OSubMulB (d, a, b, p))
  | OMul (_, a, b), OAdd (d, p, q) ->
      Some (if p = t then OMulAddA (d, a, b, q) else OMulAddB (d, a, b, p))
  | OMul (_, a, b), OSub (d, p, q) ->
      Some (if p = t then OMulSubA (d, a, b, q) else OMulSubB (d, a, b, p))
  | OMul (_, a, b), OMul (d, p, q) ->
      Some (if p = t then OMulMulA (d, a, b, q) else OMulMulB (d, a, b, p))
  (* mul feeding a mul-add accumulator: the dot-product step *)
  | OMul (_, a, b), OMulAddB (d, p, q, c) when c = t ->
      (* (p*q) + (a*b) ... OMulAddB (d, p, q, c) = c + (p*q) with c = a*b *)
      Some (OMulMulAdd (d, a, b, p, q))
  | OMul (_, a, b), OMulAddA (d, p, q, c) when c = t ->
      (* (p*q) + (a*b) *)
      Some (OMulMulAdd (d, p, q, a, b))
  (* the dot product keeps absorbing mul-add accumulators and a trailing
     scalar add (the distance-softening term); association order is
     preserved exactly, so the float result is bit-identical *)
  | OMulMulAdd (_, a, b, p, q), OMulAddB (d, x, y, c) when c = t ->
      (* ((a*b) + (p*q)) + (x*y) *)
      Some (ODot3 (d, a, b, p, q, x, y))
  | ODot3 (_, a, b, p, q, x, y), OAdd (d, u, e) when u = t ->
      (* (dot3) + e *)
      Some (ODot3Add (d, a, b, p, q, x, y, e))
  (* math1 + div/mul *)
  | OMath1 (_, g, a), ODiv (d, p, q) ->
      Some (if p = t then OGDiv (d, g, a, q) else ODivG (d, p, g, a))
  | OMath1 (_, g, a), OMul (d, p, q) ->
      Some (if p = t then OGMul (d, g, a, q) else OMulG (d, p, g, a))
  | _ -> None

(* One fusion pass over [ops]: greedy leftmost adjacent pair whose link
   register is written once, read once, and is not a kernel output.
   Returns [None] when no pair fused. *)
let fuse_once ~out ops =
  let nregs = Array.fold_left (fun acc op ->
      let acc = match kop_writes op with Some d -> max acc (d + 1) | None -> acc in
      List.fold_left (fun acc r -> max acc (r + 1)) acc (kop_reads op))
      0 ops
  in
  let writes = Array.make (max 1 nregs) 0 in
  let reads = Array.make (max 1 nregs) 0 in
  Array.iter
    (fun op ->
      (match kop_writes op with Some d -> writes.(d) <- writes.(d) + 1 | None -> ());
      List.iter (fun r -> reads.(r) <- reads.(r) + 1) (kop_reads op))
    ops;
  let n = Array.length ops in
  let rec scan i =
    if i + 1 >= n then None
    else
      let x = ops.(i) and y = ops.(i + 1) in
      match kop_writes x with
      | Some t
        when t < Array.length out
             && (not out.(t))
             && writes.(t) = 1 && reads.(t) = 1
             && List.mem t (kop_reads y) -> (
          match fuse_pair t x y with
          | Some fused ->
              let ops' =
                Array.concat
                  [
                    Array.sub ops 0 i;
                    [| fused |];
                    Array.sub ops (i + 2) (n - i - 2);
                  ]
              in
              Some ops'
          | None -> scan (i + 1))
      | _ -> scan (i + 1)
  in
  scan 0

let fuse ~out ops =
  let rec go ops changed =
    match fuse_once ~out ops with
    | Some ops' -> go ops' true
    | None -> (ops, changed)
  in
  go ops false

(* Hoist single-assignment literal registers (and, in store-free
   kernels, loads through loop-invariant sites) out of the body: they
   are computed once at kernel entry instead of every iteration.  Legal
   only when the register is written exactly once in the body and never
   read before that write (so the entry value is the value every
   iteration sees). *)
let hoist_entry (k : R.kernel) ops =
  let nregs = k.R.k_nfregs in
  let writes = Array.make (max 1 nregs) 0 in
  Array.iter
    (fun op ->
      match kop_writes op with
      | Some d -> writes.(d) <- writes.(d) + 1
      | None -> ())
    ops;
  let any_stores = Array.exists (fun c -> c > 0) k.R.k_site_stores in
  let read_before = Array.make (max 1 nregs) false in
  let lits = ref [] and pref = ref [] in
  let keep = ref [] in
  Array.iter
    (fun op ->
      let hoisted =
        match op with
        | OLit (d, x) when writes.(d) = 1 && not read_before.(d) ->
            lits := (d, x) :: !lits;
            true
        | OLoad (d, si)
          when (not any_stores) && writes.(d) = 1 && not read_before.(d)
               && invariant_idx k.R.k_sites.(si).R.ks_idx ->
            pref := (d, si) :: !pref;
            true
        | _ -> false
      in
      if not hoisted then begin
        List.iter (fun r -> read_before.(r) <- true) (kop_reads op);
        keep := op :: !keep
      end)
    ops;
  ( Array.of_list (List.rev !keep),
    Array.of_list (List.rev !lits),
    Array.of_list (List.rev !pref) )

(** Lift one kernel into a micro-program.  [hot sid] gates the
    superinstruction selector: cold kernels get the plain one-to-one
    lift (still dispatch-cheap, but unfused so selector decisions stay
    attributable to the profile). *)
let lift_kernel ~hot (k : R.kernel) : kprog =
  let m = Flow_obs.Metrics.global in
  Flow_obs.Metrics.incr m "vm_kernels";
  let plain = Array.map kop_of_kinstr k.R.k_body in
  if not (hot k.R.k_fsid) then begin
    Flow_obs.Metrics.incr m "vm_kernels_cold";
    {
      kp_kern = k;
      kp_ops = plain;
      kp_lits = [||];
      kp_prefetch = [||];
      kp_fused = false;
    }
  end
  else begin
    let before = Array.length plain in
    let ops, lits, pref = hoist_entry k plain in
    let out = Array.make (max 1 k.R.k_nfregs) false in
    Array.iter (fun (_, freg) -> out.(freg) <- true) k.R.k_out;
    let ops, fused_any = fuse ~out ops in
    let fused =
      fused_any || Array.length lits > 0 || Array.length pref > 0
    in
    if fused then Flow_obs.Metrics.incr m "vm_kernels_fused";
    Flow_obs.Metrics.incr m "vm_kernel_ops_before" ~by:before;
    Flow_obs.Metrics.incr m "vm_kernel_ops_after" ~by:(Array.length ops);
    Flow_obs.Metrics.incr m "vm_kernel_lits" ~by:(Array.length lits);
    Flow_obs.Metrics.incr m "vm_kernel_prefetch" ~by:(Array.length pref);
    {
      kp_kern = k;
      kp_ops = ops;
      kp_lits = lits;
      kp_prefetch = pref;
      kp_fused = fused;
    }
  end

(** Hotness predicate from a measured profile: a loop is hot when it
    accounts for at least [min_share] of total virtual cycles.  With no
    cycle data everything is hot (first run, no profile yet). *)
let hot_of_profile ?(min_share = 0.02) (p : Profile.t) : int -> bool =
  let total = p.Profile.cycles in
  if total <= 0.0 then fun _ -> true
  else fun sid ->
    match Hashtbl.find_opt p.Profile.loops sid with
    | Some (ls : Profile.loop_stat) -> ls.Profile.cycles /. total >= min_share
    | None -> false

(* ================================================================== *)
(* Lowering                                                            *)
(* ================================================================== *)

type item = Lab of int | Ins of instr

type lctx = {
  cp : R.t;
  glob : bool;  (** lowering the globals block: the frame is [garray] *)
  hot : int -> bool;
  nloops : int ref;  (** dense loop numbering, shared across functions *)
  cbase : int;
  tbase : int;
  cof : Value.t -> int;  (** constant-pool register of a literal *)
  mutable rev : item list;  (** emitted items, newest first *)
  mutable nlab : int;
  mutable ntmp : int;
  mutable maxtmp : int;
  mutable nsi : int;
  mutable maxsi : int;
  mutable nsf : int;
  mutable maxsf : int;
}

let emit ctx i = ctx.rev <- Ins i :: ctx.rev

let fresh_lab ctx =
  let l = ctx.nlab in
  ctx.nlab <- l + 1;
  l

let place ctx l = ctx.rev <- Lab l :: ctx.rev

let tmp ctx =
  let r = ctx.tbase + ctx.ntmp in
  ctx.ntmp <- ctx.ntmp + 1;
  if ctx.ntmp > ctx.maxtmp then ctx.maxtmp <- ctx.ntmp;
  r

let alloc_si ctx =
  let s = ctx.nsi in
  ctx.nsi <- s + 1;
  if ctx.nsi > ctx.maxsi then ctx.maxsi <- ctx.nsi;
  s

let alloc_sf ctx =
  let s = ctx.nsf in
  ctx.nsf <- s + 1;
  if ctx.nsf > ctx.maxsf then ctx.maxsf <- ctx.nsf;
  s

let fresh_loop ctx =
  let l = !(ctx.nloops) in
  incr ctx.nloops;
  l

(* In the globals block the running frame IS the global frame, so the
   optimizer's [Local] references (hoist slots, kernel slots) resolve
   through [garray]. *)
let eff ctx vr =
  if ctx.glob then match vr with R.Local i -> R.Global i | x -> x else vr

(* ------------------------------------------------------------------ *)
(* Constant-pool prescan                                               *)
(* ------------------------------------------------------------------ *)

let vkey = function
  | Value.VUnit -> "u"
  | Value.VBool b -> if b then "b1" else "b0"
  | Value.VInt n -> "i" ^ string_of_int n
  | Value.VFloat f -> "f" ^ Int64.to_string (Int64.bits_of_float f)
  | Value.VPtr { mem_id; off } -> Printf.sprintf "p%d+%d" mem_id off

let rec scan_e f (e : R.expr) =
  match e.R.e with
  | R.ELit v -> f v
  | R.EVar (R.Unbound _) -> f Value.VUnit  (* dummy result register *)
  | R.EVar _ -> ()
  | R.ENeg a | R.ENot a | R.ECast (_, a) -> scan_e f a
  | R.EArith (_, _, a, b) | R.EArithF (_, _, a, b) ->
      scan_e f a;
      scan_e f b
  | R.EArithI (_, a, b)
  | R.ECmp (_, a, b)
  | R.ECmpF (_, a, b)
  | R.ECmpI (_, a, b) ->
      scan_e f a;
      scan_e f b
  | R.EDiv (a, b) | R.EDivF (a, b) | R.EDivI (a, b) | R.EMod (a, b)
  | R.EAnd (a, b) | R.EOr (a, b) | R.EIndex (a, b) ->
      scan_e f a;
      scan_e f b
  | R.ECall { cargs; _ } ->
      List.iter (scan_e f) cargs;
      f Value.VUnit  (* builtin/error dummy results *)
  | R.EFolded _ -> ()
  | R.EHoisted { horig; _ } -> scan_e f horig

let rec scan_s f = function
  | R.SDeclVar { typ; init; _ } -> (
      match init with
      | Some e -> scan_e f e
      | None -> f (Value.zero_of_typ typ))
  | R.SDeclArr { size; _ } -> scan_e f size
  | R.SAssign { rhs; _ } -> scan_e f rhs
  | R.SStore { arr; idx; rhs; _ } ->
      scan_e f rhs;
      scan_e f arr;
      scan_e f idx
  | R.SExpr e -> scan_e f e
  | R.SIf (c, b1, b2) ->
      scan_e f c;
      scan_b f b1;
      Option.iter (scan_b f) b2
  | R.SWhile { cond; body; _ } ->
      scan_e f cond;
      scan_b f body
  | R.SFor { init; bound; step; body; _ } ->
      scan_e f init;
      scan_e f bound;
      scan_e f step;
      scan_b f body
  | R.SReturn eo -> Option.iter (scan_e f) eo
  | R.SBlock b -> scan_b f b
  | R.SDrop { drhs; _ } -> Option.iter (scan_e f) drhs
  | R.SHoistReset _ -> ()
  | R.SFused { forig; _ } -> scan_s f forig

and scan_b f (b : R.block) =
  List.iter (fun (g : R.group) -> List.iter (scan_s f) g.R.gstmts) b

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* [lx] lowers an expression and returns the register holding its
   result.  Literals resolve to constant-pool registers (no code);
   locals resolve to their slot register directly — valid because no
   MiniC construct writes a local slot mid-expression (assignments are
   statements and the optimizer's hoist slots are never [EVar]'d) —
   while globals are snapshotted into a temp at their evaluation point
   (a user call later in the expression may overwrite them). *)
let rec lx ctx (e : R.expr) : int =
  match e.R.e with
  | R.ELit v -> ctx.cof v
  | R.EVar vr -> (
      match eff ctx vr with
      | R.Local i -> i
      | R.Global g ->
          let t = tmp ctx in
          emit ctx (IGetG (t, g));
          t
      | R.Unbound n ->
          emit ctx (IErrVar n);
          ctx.cof Value.VUnit)
  | R.ENeg a ->
      let ra = lx ctx a in
      let t = tmp ctx in
      emit ctx (INeg (t, ra));
      t
  | R.ENot a ->
      let ra = lx ctx a in
      let t = tmp ctx in
      emit ctx (INot (t, ra));
      t
  | R.EArith (op, fresid, a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (IArith { op; fresid; d = t; a = ra; b = rb });
      t
  | R.EArithF (op, fresid, a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (IArithF { op; fresid; d = t; a = ra; b = rb });
      t
  | R.EArithI (op, a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (IArithI { op; d = t; a = ra; b = rb });
      t
  | R.EDiv (a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (IDiv (t, ra, rb));
      t
  | R.EDivF (a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (IDivF (t, ra, rb));
      t
  | R.EDivI (a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (IDivI (t, ra, rb));
      t
  | R.EMod (a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (IMod (t, ra, rb));
      t
  | R.ECmp (op, a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (ICmp { op; kind = KDyn; d = t; a = ra; b = rb });
      t
  | R.ECmpF (op, a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (ICmp { op; kind = KFlt; d = t; a = ra; b = rb });
      t
  | R.ECmpI (op, a, b) ->
      let ra = lx ctx a in
      let rb = lx ctx b in
      let t = tmp ctx in
      emit ctx (ICmp { op; kind = KInt; d = t; a = ra; b = rb });
      t
  | R.EAnd (a, b) ->
      let d = tmp ctx in
      let ra = lx ctx a in
      let l = fresh_lab ctx in
      emit ctx (IAndTest { d; src = ra; bcost = b.R.ecost; tgt = l });
      let rb = lx ctx b in
      emit ctx (ICastB (d, rb));
      place ctx l;
      d
  | R.EOr (a, b) ->
      let d = tmp ctx in
      let ra = lx ctx a in
      let l = fresh_lab ctx in
      emit ctx (IOrTest { d; src = ra; bcost = b.R.ecost; tgt = l });
      let rb = lx ctx b in
      emit ctx (ICastB (d, rb));
      place ctx l;
      d
  | R.EIndex (a, i) ->
      let ra = lx ctx a in
      let ri = lx ctx i in
      let t = tmp ctx in
      emit ctx (IIndex { d = t; a = ra; i = ri });
      t
  | R.ECast (t, a) -> (
      let ra = lx ctx a in
      match t with
      | Minic.Ast.Tint ->
          let d = tmp ctx in
          emit ctx (ICastI (d, ra));
          d
      | Minic.Ast.Tfloat | Minic.Ast.Tdouble ->
          let d = tmp ctx in
          emit ctx (ICastF (d, ra));
          d
      | Minic.Ast.Tbool ->
          let d = tmp ctx in
          emit ctx (ICastB (d, ra));
          d
      | _ -> ra)
  | R.ECall { callee; cargs } -> lcall ctx callee cargs
  | R.EFolded { fval; f_flops; f_int_ops; f_dyn } ->
      let t = tmp ctx in
      emit ctx (IFolded { d = t; fval; f_flops; f_int_ops; f_dyn });
      t
  | R.EHoisted { hslot; h_flops; h_sfu; h_dyn; horig } ->
      let d = tmp ctx in
      let l = fresh_lab ctx in
      emit ctx
        (IHoisted { glob = ctx.glob; hslot; h_flops; h_sfu; h_dyn; d; tgt = l });
      let rh = lx ctx horig in
      emit ctx (IHoistSave { glob = ctx.glob; hslot; d; src = rh });
      place ctx l;
      d

(* Arguments lower left to right (an explicit fold: the emission order
   is the evaluation order). *)
and largs ctx cargs =
  List.rev (List.fold_left (fun acc a -> lx ctx a :: acc) [] cargs)

and lcall ctx callee cargs : int =
  match callee with
  | R.User idx ->
      let f = ctx.cp.R.cfuncs.(idx) in
      if List.length cargs <> List.length f.R.cf_params then begin
        ignore (largs ctx cargs);
        emit ctx
          (IErrMsg
             (Printf.sprintf "call to '%s' with wrong arity" f.R.cf_name));
        ctx.cof Value.VUnit
      end
      else begin
        let rs = largs ctx cargs in
        let t = tmp ctx in
        emit ctx (ICallUser { d = t; fidx = idx; args = Array.of_list rs });
        t
      end
  | R.Math { mimpl = R.M1 g; mflops } -> (
      match cargs with
      | [ a ] ->
          let ra = lx ctx a in
          let t = tmp ctx in
          emit ctx (IMath1 { d = t; g; mflops; a = ra });
          t
      | _ ->
          let rs = largs ctx cargs in
          let t = tmp ctx in
          emit ctx
            (IMathGen { d = t; mimpl = R.M1 g; mflops; args = Array.of_list rs });
          t)
  | R.Math { mimpl = R.M2 g; mflops } -> (
      match cargs with
      | [ a; b ] ->
          let ra = lx ctx a in
          let rb = lx ctx b in
          let t = tmp ctx in
          emit ctx (IMath2 { d = t; g; mflops; a = ra; b = rb });
          t
      | _ ->
          let rs = largs ctx cargs in
          let t = tmp ctx in
          emit ctx
            (IMathGen { d = t; mimpl = R.M2 g; mflops; args = Array.of_list rs });
          t)
  | R.Math_unimpl base ->
      ignore (largs ctx cargs);
      emit ctx (IErrMsg (Printf.sprintf "unimplemented math builtin '%s'" base));
      ctx.cof Value.VUnit
  | R.Rand01 ->
      ignore (largs ctx cargs);
      let t = tmp ctx in
      emit ctx (IRand01 t);
      t
  | R.Rand_int -> (
      match largs ctx cargs with
      | r :: _ ->
          let t = tmp ctx in
          emit ctx (IRandInt (t, r));
          t
      | [] ->
          emit ctx IFailHd;
          ctx.cof Value.VUnit)
  | R.Print_int ->
      (match largs ctx cargs with
      | r :: _ -> emit ctx (IPrintInt r)
      | [] -> emit ctx IFailHd);
      ctx.cof Value.VUnit
  | R.Print_float ->
      (match largs ctx cargs with
      | r :: _ -> emit ctx (IPrintFloat r)
      | [] -> emit ctx IFailHd);
      ctx.cof Value.VUnit
  | R.Timer_start ->
      (match largs ctx cargs with
      | r :: _ -> emit ctx (ITimerStart r)
      | [] -> emit ctx IFailHd);
      ctx.cof Value.VUnit
  | R.Timer_stop ->
      (match largs ctx cargs with
      | r :: _ -> emit ctx (ITimerStop r)
      | [] -> emit ctx IFailHd);
      ctx.cof Value.VUnit
  | R.Unknown fname ->
      ignore (largs ctx cargs);
      emit ctx (IErrMsg (Printf.sprintf "call to unknown function '%s'" fname));
      ctx.cof Value.VUnit

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and store_slot ctx vr src =
  match eff ctx vr with
  | R.Local i -> if i <> src then emit ctx (IMov (i, src))
  | R.Global g -> emit ctx (ISetG (g, src))
  | R.Unbound n -> emit ctx (IErrVar n)

(* Declaration-initializer store: the coercion (and its error) happens
   before an unbound-variable error, exactly like the walker's
   [set_var] of a coerced value. *)
and store_coerced ctx vr typ src =
  match typ with
  | Minic.Ast.Tint | Minic.Ast.Tfloat | Minic.Ast.Tdouble | Minic.Ast.Tbool
    -> (
      let cast d =
        match typ with
        | Minic.Ast.Tint -> ICastI (d, src)
        | Minic.Ast.Tbool -> ICastB (d, src)
        | _ -> ICastF (d, src)
      in
      match eff ctx vr with
      | R.Local i -> emit ctx (cast i)
      | R.Global g ->
          let t = tmp ctx in
          emit ctx (cast t);
          emit ctx (ISetG (g, t))
      | R.Unbound n ->
          let t = tmp ctx in
          emit ctx (cast t);
          emit ctx (IErrVar n))
  | _ -> store_slot ctx vr src

and ls ctx (s : R.stmt) =
  (* temp watermark: expression temporaries die at statement end *)
  let t0 = ctx.ntmp in
  (match s with
  | R.SDeclVar { slot; typ; init } -> (
      emit ctx IFuel;
      match init with
      | Some e ->
          let rv = lx ctx e in
          store_coerced ctx slot typ rv
      | None -> store_slot ctx slot (ctx.cof (Value.zero_of_typ typ)))
  | R.SDeclArr { slot; typ; name; size } ->
      emit ctx IFuel;
      let rs = lx ctx size in
      let t = tmp ctx in
      emit ctx (IAlloc { d = t; typ; name; src = rs });
      store_slot ctx slot t
  | R.SAssign { slot; aop; rhs } -> (
      emit ctx IFuel;
      let rv = lx ctx rhs in
      match aop with
      | Minic.Ast.Set -> store_slot ctx slot rv
      | aop -> (
          match eff ctx slot with
          | R.Local i -> emit ctx (IApplyAssign { d = i; aop; old = i; rhs = rv })
          | R.Global g ->
              let t = tmp ctx in
              emit ctx (IGetG (t, g));
              emit ctx (IApplyAssign { d = t; aop; old = t; rhs = rv });
              emit ctx (ISetG (g, t))
          | R.Unbound n -> emit ctx (IErrVar n)))
  | R.SStore { arr; idx; aop; rhs } -> (
      emit ctx IFuel;
      let rv = lx ctx rhs in
      let ra = lx ctx arr in
      let ri = lx ctx idx in
      match aop with
      | Minic.Ast.Set -> emit ctx (IStore { arr = ra; idx = ri; src = rv })
      | aop -> emit ctx (IStoreOp { aop; arr = ra; idx = ri; src = rv }))
  | R.SExpr e ->
      emit ctx IFuel;
      ignore (lx ctx e)
  | R.SIf (c, b1, b2) -> (
      emit ctx IFuel;
      let lelse = fresh_lab ctx in
      (match c.R.e with
      | R.ECmp (op, a, b) ->
          let ra = lx ctx a in
          let rb = lx ctx b in
          Flow_obs.Metrics.incr Flow_obs.Metrics.global "vm_fused_cmp_branch";
          emit ctx (IBrCmp { op; kind = KDyn; a = ra; b = rb; tgt = lelse })
      | R.ECmpF (op, a, b) ->
          let ra = lx ctx a in
          let rb = lx ctx b in
          Flow_obs.Metrics.incr Flow_obs.Metrics.global "vm_fused_cmp_branch";
          emit ctx (IBrCmp { op; kind = KFlt; a = ra; b = rb; tgt = lelse })
      | R.ECmpI (op, a, b) ->
          let ra = lx ctx a in
          let rb = lx ctx b in
          Flow_obs.Metrics.incr Flow_obs.Metrics.global "vm_fused_cmp_branch";
          emit ctx (IBrCmp { op; kind = KInt; a = ra; b = rb; tgt = lelse })
      | _ ->
          let rc = lx ctx c in
          emit ctx (IJmpFalse (rc, lelse)));
      lb ctx b1;
      match b2 with
      | None -> place ctx lelse
      | Some b2 ->
          let lend = fresh_lab ctx in
          emit ctx (IJmp lend);
          place ctx lelse;
          lb ctx b2;
          place ctx lend)
  | R.SWhile { wsid; cond; body } ->
      emit ctx IFuel;
      let lidx = fresh_loop ctx in
      let si0 = ctx.nsi and sf0 = ctx.nsf in
      let trips = alloc_si ctx and t0 = alloc_sf ctx in
      emit ctx (ILoopEnterW { lidx; sid = wsid; t0; trips });
      let ltest = fresh_lab ctx and lexit = fresh_lab ctx in
      place ctx ltest;
      if cond.R.ecost <> 0.0 then emit ctx (ICharge cond.R.ecost);
      let rc = lx ctx cond in
      emit ctx (IWhileIter { src = rc; lidx; sid = wsid; trips; tgt = lexit });
      lb ctx body;
      emit ctx (IJmp ltest);
      place ctx lexit;
      emit ctx (ILoopExit { lidx; sid = wsid; t0; trips });
      ctx.nsi <- si0;
      ctx.nsf <- sf0
  | R.SFor { fsid; slot; init; bound; inclusive; step; body } ->
      lfor ctx (fresh_loop ctx) ~fsid ~slot ~init ~bound ~inclusive ~step
        ~body
  | R.SReturn eo ->
      emit ctx IFuel;
      let rv =
        match eo with Some e -> lx ctx e | None -> ctx.cof Value.VUnit
      in
      emit ctx (if ctx.glob then IRetRaise rv else IRet rv)
  | R.SBlock b ->
      emit ctx IFuel;
      lb ctx b
  | R.SDrop { dtyp; drhs } -> (
      emit ctx IFuel;
      match drhs with
      | None -> ()
      | Some e -> (
          let rv = lx ctx e in
          match dtyp with
          | Some
              ((Minic.Ast.Tint | Minic.Ast.Tfloat | Minic.Ast.Tdouble
               | Minic.Ast.Tbool) as t) ->
              emit ctx (IDropChk { co = t; src = rv })
          | Some _ | None -> ()))
  | R.SHoistReset slots ->
      emit ctx (IHoistReset { glob = ctx.glob; slots = Array.of_list slots })
  | R.SFused { forig; kern } -> (
      match forig with
      | R.SFor { fsid; slot; init; bound; inclusive; step; body } ->
          let lidx = fresh_loop ctx in
          let ldone = fresh_lab ctx in
          let kp = lift_kernel ~hot:ctx.hot kern in
          emit ctx (IKernel { glob = ctx.glob; lidx; kp; tgt = ldone });
          lfor ctx lidx ~fsid ~slot ~init ~bound ~inclusive ~step ~body;
          place ctx ldone
      | s -> ls ctx s));
  ctx.ntmp <- t0

and lfor ctx lidx ~fsid ~slot ~init ~bound ~inclusive ~step ~body =
  emit ctx IFuel;
  let si0 = ctx.nsi and sf0 = ctx.nsf in
  let trips = alloc_si ctx and t0 = alloc_sf ctx in
  emit ctx
    (ILoopEnterF { lidx; sid = fsid; t0; trips; icost = init.R.ecost });
  let ri = lx ctx init in
  let slot = eff ctx slot in
  emit ctx (IForInit { slot; src = ri });
  let ltest = fresh_lab ctx and lexit = fresh_lab ctx in
  place ctx ltest;
  emit ctx (ICharge (C.branch +. bound.R.ecost));
  let rb = lx ctx bound in
  emit ctx
    (IForTest { slot; bound = rb; inclusive; lidx; sid = fsid; trips; tgt = lexit });
  lb ctx body;
  if step.R.ecost <> 0.0 then emit ctx (ICharge step.R.ecost);
  let rs = lx ctx step in
  emit ctx (IForStep { slot; src = rs });
  emit ctx (IJmp ltest);
  place ctx lexit;
  emit ctx (ILoopExit { lidx; sid = fsid; t0; trips });
  ctx.nsi <- si0;
  ctx.nsf <- sf0

and lg ctx (g : R.group) =
  if g.R.gcost <> 0.0 then emit ctx (ICharge g.R.gcost);
  List.iter (ls ctx) g.R.gstmts

and lb ctx (b : R.block) = List.iter (lg ctx) b

(* ------------------------------------------------------------------ *)
(* Label resolution and entry points                                   *)
(* ------------------------------------------------------------------ *)

let patch lp = function
  | IJmp l -> IJmp lp.(l)
  | IJmpFalse (s, l) -> IJmpFalse (s, lp.(l))
  | IBrCmp r -> IBrCmp { r with tgt = lp.(r.tgt) }
  | IAndTest r -> IAndTest { r with tgt = lp.(r.tgt) }
  | IOrTest r -> IOrTest { r with tgt = lp.(r.tgt) }
  | IHoisted r -> IHoisted { r with tgt = lp.(r.tgt) }
  | IWhileIter r -> IWhileIter { r with tgt = lp.(r.tgt) }
  | IForTest r -> IForTest { r with tgt = lp.(r.tgt) }
  | IKernel r -> IKernel { r with tgt = lp.(r.tgt) }
  | i -> i

let lower_fn (cp : R.t) ~glob ~hot ~nloops ~nslots (body : R.block) : fn =
  (* constant-pool prescan first so every register index is final *)
  let tbl = Hashtbl.create 16 in
  let consts = ref [] and ncon = ref 0 in
  let add v =
    let k = vkey v in
    if not (Hashtbl.mem tbl k) then begin
      Hashtbl.add tbl k !ncon;
      consts := v :: !consts;
      incr ncon
    end
  in
  add Value.VUnit;
  scan_b add body;
  let cvals = Array.of_list (List.rev !consts) in
  let cbase = nslots in
  let ctx =
    {
      cp;
      glob;
      hot;
      nloops;
      cbase;
      tbase = cbase + !ncon;
      cof = (fun v -> cbase + Hashtbl.find tbl (vkey v));
      rev = [];
      nlab = 0;
      ntmp = 0;
      maxtmp = 0;
      nsi = 0;
      maxsi = 0;
      nsf = 0;
      maxsf = 0;
    }
  in
  lb ctx body;
  (* fall off the end: both engines return VUnit *)
  emit ctx (IRet (ctx.cof Value.VUnit));
  let items = List.rev ctx.rev in
  let lp = Array.make (max 1 ctx.nlab) 0 in
  let n = ref 0 in
  List.iter (function Lab l -> lp.(l) <- !n | Ins _ -> incr n) items;
  let code = Array.make !n IFuel in
  let pc = ref 0 in
  List.iter
    (function
      | Lab _ -> ()
      | Ins i ->
          code.(!pc) <- patch lp i;
          incr pc)
    items;
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "vm_instrs"
    ~by:(Array.length code);
  {
    bc_code = code;
    bc_nregs = max 1 (ctx.tbase + ctx.maxtmp);
    bc_cbase = cbase;
    bc_cvals = cvals;
    bc_nsi = ctx.maxsi;
    bc_nsf = ctx.maxsf;
  }

(** Lower a resolved (optionally optimized) program.  [hot] gates the
    superinstruction selector per loop statement id; by default every
    specialized kernel is fused (profile-free compile).  Pass
    [hot_of_profile p] to fuse only loops that matter in [p]. *)
let lower ?(hot = fun (_ : int) -> true) (cp : R.t) : program =
  let nloops = ref 0 in
  let funcs =
    Array.map
      (fun (cf : R.cfunc) ->
        lower_fn cp ~glob:false ~hot ~nloops ~nslots:cf.R.cf_nslots
          cf.R.cf_body)
      cp.R.cfuncs
  in
  let globals = lower_fn cp ~glob:true ~hot ~nloops ~nslots:0 cp.R.cglobals in
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "vm_programs";
  { bc_cp = cp; bc_funcs = funcs; bc_globals = globals; bc_nloops = !nloops }
