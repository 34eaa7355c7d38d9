(** The MiniC interpreter.

    Executes a program starting at [main], charging virtual cycles per
    {!Profile.Cost} and recording the observations that the dynamic
    design-flow tasks consume.  Passing [~focus:"kernel_fn"] additionally
    profiles every call to that function as an accelerator-offload
    candidate: per-argument transfer requirements and touched ranges.

    Programs are first lowered to the slot IR of {!Resolve} (array-indexed
    variable slots, pre-resolved callees, per-group batched static cycle
    charges), optimized by {!Opt}, and then lowered once more by
    {!Bytecode} to a flat register-bytecode program that a single
    tail-recursive dispatch loop executes ({!run_compiled}), with
    profile-guided superinstructions inside specialized loop kernels.
    Focus tracking is selected per run: without a focus, memory
    accessors carry no kernel-tracking test, so profiling runs without a
    focus pay nothing for the offload instrumentation.

    The original tree walker over the slot IR is kept as {!run_ir}: a
    reference implementation the test suite (and the perf harness's
    before/after comparison) checks the VM against, bit-identically —
    same charge order, same counter updates, same fuel accounting, same
    error points.

    Determinism: [rand01]/[rand_int] use a fixed-seed LCG, so repeated
    runs (and runs of instrumented variants) see identical inputs — the
    property the paper relies on when it compares designs generated from
    the same reference source. *)

open Value

exception Return_exc of Value.t

(* Per-region tracking record for the active kernel-focus call.  The
   hot per-access path only bumps the lo/hi bounds and flips the
   per-element first-access state; the (allocating) range-list
   maintenance is replayed once at focus exit. *)
type focus_track = {
  ft_idxs : int list;
      (* kernel argument indices this region is reachable from *)
  ft_state : Bytes.t;
      (* per-element first-access state: 0 untouched, 1 read, 2 written *)
  mutable ft_lo : int;  (* min touched offset; [max_int] when untouched *)
  mutable ft_hi : int;  (* max touched offset; [-1] when untouched *)
}

type state = {
  cprog : Resolve.t;
  mem : Memory.t;
  prof : Profile.t;
  cyc : float array;
      (** the running virtual-cycle total, as a 1-element flat float
          array: [Profile.t] is a mixed record, so bumping
          [prof.cycles] directly would box a fresh float (plus a write
          barrier) on every charge — the single hottest operation of a
          run.  Synced back into [prof.cycles] at timer calls and at
          run end ({!sync_cycles}). *)
  garray : Value.t array;  (** global frame *)
  out : Buffer.t;
  mutable rng : int;
  focus_idx : int;  (** index of the focus function, [-1] for none *)
  mutable focus_depth : int;
  mutable focus_track : focus_track option array;
      (** per-region tracking for the active focus call, indexed by
          region id (dense: region ids are allocation order).  [None]
          for regions not reachable from a kernel pointer argument —
          including any allocated after the call began. *)
  mutable focus_order : int list;
      (** region ids in reverse first-touch order within the active
          focus call; {!exit_focus} replays the [regions_touched] range
          updates in this order so the per-argument region lists come
          out exactly as if they had been maintained per access. *)
  mutable fuel : int;  (** remaining statement budget, guards against hangs *)
  mutable loop_cache : Profile.loop_stat option array;
      (** per-run memo of {!Profile.loop_stat} records, indexed by the
          dense loop number the bytecode lowering assigns — the
          profile's Hashtbl is only consulted on a loop's first
          invocation.  Sized by {!run_compiled}; unused (empty) on the
          reference walker path. *)
  mutable bulk_cycles : float;
      (** virtual cycles charged in bulk by specialized loop kernels
          this run; surfaced as the [interp_bulk_cycles] metric. *)
}

let[@inline] cached_loop_stat st lidx sid =
  match Array.unsafe_get st.loop_cache lidx with
  | Some s -> s
  | None ->
      let s = Profile.loop_stat st.prof sid in
      Array.unsafe_set st.loop_cache lidx (Some s);
      s

let[@inline] charge st c =
  Array.unsafe_set st.cyc 0 (Array.unsafe_get st.cyc 0 +. c)

let[@inline] cycles st = Array.unsafe_get st.cyc 0

(* [Profile.timer_start]/[timer_stop] read [prof.cycles]; bring it up to
   date before handing the profile over. *)
let[@inline] sync_cycles st = st.prof.cycles <- cycles st

let[@inline] spend_fuel st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then err "execution budget exhausted (infinite loop?)"

(* ------------------------------------------------------------------ *)
(* Deterministic pseudo-random inputs                                  *)
(* ------------------------------------------------------------------ *)

let lcg_next st =
  st.rng <- ((1103515245 * st.rng) + 12345) land 0x3FFFFFFF;
  st.rng

let rand01 st = float_of_int (lcg_next st) /. 1073741824.0
let rand_int st n = if n <= 0 then 0 else lcg_next st mod n

(* ------------------------------------------------------------------ *)
(* Kernel-focus access tracking                                        *)
(* ------------------------------------------------------------------ *)

let kernel_obs st =
  match st.prof.kernel with
  | Some k -> k
  | None ->
      let k =
        {
          Profile.calls = 0;
          k_cycles = 0.0;
          k_flops = 0;
          k_sfu = 0;
          k_bytes_read = 0;
          k_bytes_written = 0;
          args = [||];
        }
      in
      st.prof.kernel <- Some k;
      k

let update_range (obs : Profile.arg_obs) region_id off =
  let rec go = function
    | [] -> [ (region_id, off, off) ]
    | (id, lo, hi) :: rest when id = region_id ->
        (id, min lo off, max hi off) :: rest
    | entry :: rest -> entry :: go rest
  in
  obs.regions_touched <- go obs.regions_touched

(* Attribute a transfer to the first kernel argument reaching the
   region (aliased arguments would double-count the same bytes). *)
let attribute st (tr : focus_track) f =
  let k = kernel_obs st in
  match tr.ft_idxs with
  | i :: _ when i < Array.length k.args -> f k.args.(i)
  | _ -> ()

(* Called only with [focus_depth > 0]; [elem] is the region's element
   size in bytes.  Hot path: bound updates and the first-access byte
   classification only — the [regions_touched] list maintenance is
   deferred to {!exit_focus}. *)
let track_focus_access st ~write mem_id off elem =
  let a = st.focus_track in
  if mem_id < Array.length a then
    match Array.unsafe_get a mem_id with
    | None -> ()
    | Some tr ->
        if off < tr.ft_lo then (
          if tr.ft_hi < 0 then st.focus_order <- mem_id :: st.focus_order;
          tr.ft_lo <- off);
        if off > tr.ft_hi then tr.ft_hi <- off;
        let s = Bytes.get_uint8 tr.ft_state off in
        if write then (
          (* first write of this element: it is produced on-device and
             must be copied back *)
          if s land 2 = 0 then (
            Bytes.set_uint8 tr.ft_state off (s lor 2);
            attribute st tr (fun a ->
                a.Profile.bytes_out <- a.Profile.bytes_out + elem)))
        else if s = 0 then (
          (* first access is a read: the element must be transferred in *)
          Bytes.set_uint8 tr.ft_state off 1;
          attribute st tr (fun a ->
              a.Profile.bytes_in <- a.Profile.bytes_in + elem))

(* Load/store with the region record already fetched: bounds check,
   access counters, byte accounting, and (on the tracking path) the
   focus classification — one region fetch per access.  The
   [Cost.load]/[Cost.store] cycles themselves are statically known and
   batched by the resolver. *)

let load_r st (r : Memory.region) off =
  if off < 0 || off >= Array.length r.data then
    err "out-of-bounds read of '%s' at index %d (size %d)" r.name off
      (Array.length r.data);
  st.prof.loads <- st.prof.loads + 1;
  st.prof.bytes_read <- st.prof.bytes_read + r.elem_bytes;
  Array.unsafe_get r.data off

let store_r st (r : Memory.region) off v =
  if off < 0 || off >= Array.length r.data then
    err "out-of-bounds write of '%s' at index %d (size %d)" r.name off
      (Array.length r.data);
  Array.unsafe_set r.data off v;
  st.prof.stores <- st.prof.stores + 1;
  st.prof.bytes_written <- st.prof.bytes_written + r.elem_bytes

let load_r_tracked st r off =
  let v = load_r st r off in
  if st.focus_depth > 0 then
    track_focus_access st ~write:false r.Memory.id off r.elem_bytes;
  v

let store_r_tracked st r off v =
  store_r st r off v;
  if st.focus_depth > 0 then
    track_focus_access st ~write:true r.Memory.id off r.elem_bytes

(* Pointer-based accessors for the reference tree walker. *)
let mem_load st (p : Value.ptr) = load_r_tracked st (Memory.region st.mem p.mem_id) p.off

let mem_store st (p : Value.ptr) v =
  store_r_tracked st (Memory.region st.mem p.mem_id) p.off v

(* ------------------------------------------------------------------ *)
(* Slot access                                                         *)
(* ------------------------------------------------------------------ *)

let get_var st frame = function
  | Resolve.Local i -> frame.(i)
  | Resolve.Global i -> st.garray.(i)
  | Resolve.Unbound n -> err "undefined variable '%s'" n

let set_var st frame r v =
  match r with
  | Resolve.Local i -> frame.(i) <- v
  | Resolve.Global i -> st.garray.(i) <- v
  | Resolve.Unbound n -> err "undefined variable '%s'" n

(* ------------------------------------------------------------------ *)
(* Arithmetic with dynamic residues                                    *)
(* ------------------------------------------------------------------ *)

(* Add/Sub/Mul: the resolver pre-charged [Cost.int_op]; [fresid] is the
   difference to the float cost, charged when the operands turn out to
   be floating-point. *)
let do_arith st op fresid a b =
  let open Minic.Ast in
  if is_float a || is_float b then (
    if fresid <> 0.0 then charge st fresid;
    st.prof.flops <- st.prof.flops + 1;
    match op with
    | Add -> VFloat (to_float a +. to_float b)
    | Sub -> VFloat (to_float a -. to_float b)
    | Mul -> VFloat (to_float a *. to_float b)
    | _ -> assert false)
  else (
    st.prof.int_ops <- st.prof.int_ops + 1;
    match op with
    | Add -> VInt (to_int a + to_int b)
    | Sub -> VInt (to_int a - to_int b)
    | Mul -> VInt (to_int a * to_int b)
    | _ -> assert false)

(* Division cost depends on the operand kinds: charged fully at run
   time. *)
let do_div st a b =
  if is_float a || is_float b then (
    charge st Profile.Cost.float_div;
    st.prof.flops <- st.prof.flops + 1;
    VFloat (to_float a /. to_float b))
  else (
    charge st Profile.Cost.int_op;
    st.prof.int_ops <- st.prof.int_ops + 1;
    let d = to_int b in
    if d = 0 then err "integer division by zero";
    VInt (to_int a / d))

(* Mod: [Cost.int_op] pre-charged; only the counter is dynamic. *)
let do_mod st a b =
  if is_float a || is_float b then st.prof.flops <- st.prof.flops + 1
  else st.prof.int_ops <- st.prof.int_ops + 1;
  let d = to_int b in
  if d = 0 then err "integer modulo by zero";
  VInt (to_int a mod d)

let do_cmp op fl a b =
  let open Minic.Ast in
  match op with
  | Lt -> if fl then to_float a < to_float b else to_int a < to_int b
  | Le -> if fl then to_float a <= to_float b else to_int a <= to_int b
  | Gt -> if fl then to_float a > to_float b else to_int a > to_int b
  | Ge -> if fl then to_float a >= to_float b else to_int a >= to_int b
  | Eq -> if fl then to_float a = to_float b else to_int a = to_int b
  | Ne -> if fl then to_float a <> to_float b else to_int a <> to_int b
  | _ -> assert false

let coerce typ v =
  match typ with
  | Minic.Ast.Tint -> VInt (to_int v)
  | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> VFloat (to_float v)
  | Minic.Ast.Tbool -> VBool (to_bool v)
  | _ -> v

let coerce_region st (p : Value.ptr) v =
  coerce (Memory.region st.mem p.mem_id).elem_typ v

let arith_fresid = Profile.Cost.float_add -. Profile.Cost.int_op
let mul_fresid = Profile.Cost.float_mul -. Profile.Cost.int_op

let apply_assign st op old rhs =
  match op with
  | Minic.Ast.Set -> rhs
  | Minic.Ast.AddEq -> do_arith st Minic.Ast.Add arith_fresid old rhs
  | Minic.Ast.SubEq -> do_arith st Minic.Ast.Sub arith_fresid old rhs
  | Minic.Ast.MulEq -> do_arith st Minic.Ast.Mul mul_fresid old rhs
  | Minic.Ast.DivEq -> do_div st old rhs

(* ------------------------------------------------------------------ *)
(* Focus-call bracketing                                               *)
(* ------------------------------------------------------------------ *)

let enter_focus st (f : Resolve.cfunc) args =
  let ptr_params =
    List.filteri
      (fun _ ((p : Minic.Ast.param), _) ->
        match p.ptyp with Minic.Ast.Tptr _ -> true | _ -> false)
      (List.combine f.cf_params args)
  in
  let k = kernel_obs st in
  if Array.length k.args = 0 then
    k.args <-
      Array.of_list
        (List.mapi
           (fun i ((p : Minic.Ast.param), _) ->
             {
               Profile.arg_index = i;
               arg_name = p.pname_;
               regions_touched = [];
               bytes_in = 0;
               bytes_out = 0;
             })
           ptr_params);
  st.focus_order <- [];
  st.focus_track <- Array.make (max 1 st.mem.Memory.next_id) None;
  List.iteri
    (fun i (_, v) ->
      match v with
      | VPtr p -> (
          match st.focus_track.(p.mem_id) with
          | Some tr ->
              (* aliased arguments share the region's first-access
                 state; transfers attribute to the first of them *)
              st.focus_track.(p.mem_id) <-
                Some { tr with ft_idxs = tr.ft_idxs @ [ i ] }
          | None ->
              st.focus_track.(p.mem_id) <-
                Some
                  {
                    ft_idxs = [ i ];
                    ft_state =
                      Bytes.make (Memory.length st.mem p.mem_id) '\000';
                    ft_lo = max_int;
                    ft_hi = -1;
                  })
      | _ -> ())
    ptr_params;
  st.focus_depth <- st.focus_depth + 1

let exit_focus st (c0, f0, s0, br0, bw0) =
  st.focus_depth <- st.focus_depth - 1;
  let k = kernel_obs st in
  (* replay the deferred [regions_touched] range updates in first-touch
     order: merging each region's lo then hi bound is exactly the fold
     the per-access updates would have produced *)
  List.iter
    (fun mem_id ->
      match st.focus_track.(mem_id) with
      | Some tr when tr.ft_hi >= 0 ->
          List.iter
            (fun i ->
              if i < Array.length k.args then (
                update_range k.args.(i) mem_id tr.ft_lo;
                update_range k.args.(i) mem_id tr.ft_hi))
            tr.ft_idxs
      | _ -> ())
    (List.rev st.focus_order);
  k.calls <- k.calls + 1;
  k.k_cycles <- k.k_cycles +. (cycles st -. c0);
  k.k_flops <- k.k_flops + (st.prof.flops - f0);
  k.k_sfu <- k.k_sfu + (st.prof.sfu_ops - s0);
  k.k_bytes_read <- k.k_bytes_read + (st.prof.bytes_read - br0);
  k.k_bytes_written <- k.k_bytes_written + (st.prof.bytes_written - bw0)

let counters_snapshot st =
  ( cycles st,
    st.prof.flops,
    st.prof.sfu_ops,
    st.prof.bytes_read,
    st.prof.bytes_written )

(* ================================================================== *)
(* Reference tree walker over the slot IR                              *)
(* ================================================================== *)

(* The original interpreter, kept verbatim as the semantic reference:
   the test suite asserts the VM reproduces its profiles bit-identically,
   and the perf harness reports its throughput as the "before" number. *)
module Ir_walk = struct
  let rec eval_expr st frame (e : Resolve.expr) : Value.t =
    match e.e with
    | ELit v -> v
    | EVar r -> get_var st frame r
    | ENeg a -> (
        match eval_expr st frame a with
        | VInt n -> VInt (-n)
        | VFloat f ->
            st.prof.flops <- st.prof.flops + 1;
            VFloat (-.f)
        | _ -> err "negation of a non-numeric value")
    | ENot a -> VBool (not (to_bool (eval_expr st frame a)))
    | EArith (op, fresid, a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        do_arith st op fresid va vb
    | EDiv (a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        do_div st va vb
    | EMod (a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        do_mod st va vb
    | ECmp (op, a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        VBool (do_cmp op (is_float va || is_float vb) va vb)
    | EAnd (a, b) ->
        (* && and || short-circuit like C *)
        if to_bool (eval_expr st frame a) then (
          charge st b.ecost;
          VBool (to_bool (eval_expr st frame b)))
        else VBool false
    | EOr (a, b) ->
        if to_bool (eval_expr st frame a) then VBool true
        else (
          charge st b.ecost;
          VBool (to_bool (eval_expr st frame b)))
    | EIndex (a, i) ->
        let p = to_ptr (eval_expr st frame a) in
        let i = to_int (eval_expr st frame i) in
        mem_load st { p with off = p.off + i }
    | ECast (t, a) -> coerce t (eval_expr st frame a)
    | ECall { callee; cargs } -> (
        let args = List.map (eval_expr st frame) cargs in
        match callee with
        | User idx -> eval_user_call st idx args
        | Math { mimpl; mflops } -> (
            st.prof.sfu_ops <- st.prof.sfu_ops + 1;
            st.prof.flops <- st.prof.flops + mflops;
            match (mimpl, args) with
            | M1 g, a :: _ -> VFloat (g (to_float a))
            | M2 g, a :: b :: _ -> VFloat (g (to_float a) (to_float b))
            | _ -> err "math builtin called with too few arguments")
        | Math_unimpl base -> err "unimplemented math builtin '%s'" base
        | Rand01 -> VFloat (rand01 st)
        | Rand_int -> VInt (rand_int st (to_int (List.hd args)))
        | Print_int ->
            Buffer.add_string st.out
              (string_of_int (to_int (List.hd args)) ^ "\n");
            VUnit
        | Print_float ->
            Buffer.add_string st.out
              (Printf.sprintf "%.6g\n" (to_float (List.hd args)));
            VUnit
        | Timer_start ->
            sync_cycles st;
            Profile.timer_start st.prof (to_int (List.hd args));
            VUnit
        | Timer_stop ->
            sync_cycles st;
            Profile.timer_stop st.prof (to_int (List.hd args));
            VUnit
        | Unknown fname -> err "call to unknown function '%s'" fname)
    | EFolded { fval; f_flops; f_int_ops; f_dyn } ->
        if f_dyn <> 0.0 then charge st f_dyn;
        if f_flops <> 0 then st.prof.flops <- st.prof.flops + f_flops;
        if f_int_ops <> 0 then st.prof.int_ops <- st.prof.int_ops + f_int_ops;
        fval
    | EArithF (op, fresid, a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        if fresid <> 0.0 then charge st fresid;
        st.prof.flops <- st.prof.flops + 1;
        VFloat
          (match op with
          | Minic.Ast.Add -> to_float va +. to_float vb
          | Minic.Ast.Sub -> to_float va -. to_float vb
          | Minic.Ast.Mul -> to_float va *. to_float vb
          | _ -> assert false)
    | EArithI (op, a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        st.prof.int_ops <- st.prof.int_ops + 1;
        VInt
          (match op with
          | Minic.Ast.Add -> to_int va + to_int vb
          | Minic.Ast.Sub -> to_int va - to_int vb
          | Minic.Ast.Mul -> to_int va * to_int vb
          | _ -> assert false)
    | EDivF (a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        charge st Profile.Cost.float_div;
        st.prof.flops <- st.prof.flops + 1;
        VFloat (to_float va /. to_float vb)
    | EDivI (a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        charge st Profile.Cost.int_op;
        st.prof.int_ops <- st.prof.int_ops + 1;
        let d = to_int vb in
        if d = 0 then err "integer division by zero";
        VInt (to_int va / d)
    | ECmpF (op, a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        VBool (do_cmp op true va vb)
    | ECmpI (op, a, b) ->
        let va = eval_expr st frame a in
        let vb = eval_expr st frame b in
        VBool (do_cmp op false va vb)
    | EHoisted { hslot; h_flops; h_sfu; h_dyn; horig } -> (
        match frame.(hslot) with
        | VFloat _ as v ->
            if h_dyn <> 0.0 then charge st h_dyn;
            if h_flops <> 0 then st.prof.flops <- st.prof.flops + h_flops;
            if h_sfu <> 0 then st.prof.sfu_ops <- st.prof.sfu_ops + h_sfu;
            v
        | _ ->
            let v = eval_expr st frame horig in
            frame.(hslot) <- v;
            v)

  and eval_user_call st idx args =
    (* the call's [Cost.call] cycles were batched by the caller's group
       (or charged by the entry point for the root call to [main]) *)
    let f = st.cprog.cfuncs.(idx) in
    if List.length args <> List.length f.cf_params then
      err "call to '%s' with wrong arity" f.cf_name;
    let frame = Array.make (max 1 f.cf_nslots) VUnit in
    List.iteri (fun i v -> frame.(f.cf_param_slots.(i)) <- v) args;
    let is_focus = idx = st.focus_idx && st.focus_depth = 0 in
    if is_focus then enter_focus st f args;
    let snapshot = counters_snapshot st in
    let result =
      try
        exec_block st frame f.cf_body;
        VUnit
      with Return_exc v -> v
    in
    if is_focus then exit_focus st snapshot;
    result

  and exec_stmt st frame (s : Resolve.stmt) =
    match s with
    | SHoistReset slots ->
        (* synthetic bookkeeping: free of fuel and cycles *)
        List.iter (fun i -> frame.(i) <- VUnit) slots
    | SFused { forig; _ } ->
        (* the walker is the semantic reference: always run the loop *)
        exec_stmt st frame forig
    | s -> exec_plain_stmt st frame s

  and exec_plain_stmt st frame (s : Resolve.stmt) =
    spend_fuel st;
    match s with
    | SDeclVar { slot; typ; init } ->
        let v =
          match init with
          | Some e -> coerce typ (eval_expr st frame e)
          | None -> Value.zero_of_typ typ
        in
        set_var st frame slot v
    | SDeclArr { slot; typ; name; size } ->
        let n = to_int (eval_expr st frame size) in
        set_var st frame slot (Memory.alloc st.mem ~name ~elem_typ:typ n)
    | SAssign { slot; aop; rhs } -> (
        let rhs = eval_expr st frame rhs in
        match aop with
        | Set -> set_var st frame slot rhs
        | _ ->
            set_var st frame slot
              (apply_assign st aop (get_var st frame slot) rhs))
    | SStore { arr; idx; aop; rhs } ->
        let rhs = eval_expr st frame rhs in
        let p = to_ptr (eval_expr st frame arr) in
        let i = to_int (eval_expr st frame idx) in
        let p = { p with off = p.off + i } in
        let v =
          if aop = Minic.Ast.Set then coerce_region st p rhs
          else apply_assign st aop (mem_load st p) rhs
        in
        mem_store st p v
    | SExpr e -> ignore (eval_expr st frame e)
    | SIf (c, b1, b2) ->
        if to_bool (eval_expr st frame c) then exec_block st frame b1
        else Option.iter (exec_block st frame) b2
    | SWhile { wsid; cond; body } ->
        let stat = Profile.loop_stat st.prof wsid in
        stat.invocations <- stat.invocations + 1;
        let t0 = cycles st in
        let trips = ref 0 in
        charge st Profile.Cost.branch;
        let rec loop () =
          charge st cond.ecost;
          if to_bool (eval_expr st frame cond) then (
            incr trips;
            stat.iterations <- stat.iterations + 1;
            spend_fuel st;
            charge st (Profile.Cost.loop_iter +. Profile.Cost.branch);
            exec_block st frame body;
            loop ())
        in
        loop ();
        stat.min_trip <- min stat.min_trip !trips;
        stat.max_trip <- max stat.max_trip !trips;
        stat.cycles <- stat.cycles +. (cycles st -. t0)
    | SFor { fsid; slot; init; bound; inclusive; step; body } ->
        let stat = Profile.loop_stat st.prof fsid in
        stat.invocations <- stat.invocations + 1;
        let t0 = cycles st in
        charge st init.ecost;
        let i0 = to_int (eval_expr st frame init) in
        set_var st frame slot (VInt i0);
        let trips = ref 0 in
        let continue_ () =
          charge st (Profile.Cost.branch +. bound.ecost);
          let b = to_int (eval_expr st frame bound) in
          let i = to_int (get_var st frame slot) in
          if inclusive then i <= b else i < b
        in
        while continue_ () do
          incr trips;
          stat.iterations <- stat.iterations + 1;
          spend_fuel st;
          charge st (Profile.Cost.loop_iter +. Profile.Cost.int_op);
          exec_block st frame body;
          charge st step.ecost;
          let stepv = to_int (eval_expr st frame step) in
          set_var st frame slot (VInt (to_int (get_var st frame slot) + stepv))
        done;
        stat.min_trip <- min stat.min_trip !trips;
        stat.max_trip <- max stat.max_trip !trips;
        stat.cycles <- stat.cycles +. (cycles st -. t0)
    | SReturn eo ->
        let v =
          match eo with Some e -> eval_expr st frame e | None -> VUnit
        in
        raise (Return_exc v)
    | SBlock b -> exec_block st frame b
    | SDrop { dtyp; drhs } -> (
        match drhs with
        | None -> ()
        | Some e -> (
            let v = eval_expr st frame e in
            match dtyp with Some t -> ignore (coerce t v) | None -> ()))
    | SHoistReset _ | SFused _ ->
        (* dispatched fuel-free by [exec_stmt] *)
        assert false

  and exec_group st frame (g : Resolve.group) =
    if g.gcost <> 0.0 then charge st g.gcost;
    List.iter (exec_stmt st frame) g.gstmts

  and exec_block st frame (b : Resolve.block) =
    List.iter (exec_group st frame) b
end

(* ================================================================== *)
(* Flat register-bytecode VM                                           *)
(* ================================================================== *)

module B = Bytecode

(* Raised by a specialized kernel's entry protocol — strictly before any
   state mutation — when a precondition fails (non-numeric bounds,
   non-float region, out-of-range access, insufficient fuel).  The
   [IKernel] instruction then falls through to the loop's faithfully
   lowered bytecode. *)
exception Kernel_unfit

let vtrue = VBool true
let vfalse = VBool false
let vbool b = if b then vtrue else vfalse

let while_iter_cost = Profile.Cost.loop_iter +. Profile.Cost.branch
let for_iter_cost = Profile.Cost.loop_iter +. Profile.Cost.int_op

let[@inline] vk_ld datas offs si =
  match
    Array.unsafe_get (Array.unsafe_get datas si) (Array.unsafe_get offs si)
  with
  | VFloat f -> f
  | v -> to_float v

let[@inline] vk_st datas offs si v =
  Array.unsafe_set (Array.unsafe_get datas si) (Array.unsafe_get offs si)
    (VFloat v)

(* Run [count] iterations of a fused kernel micro-program, starting at
   loop index [iv0] with site offsets [offs] (mutated in place).  Only
   the sites in [adv] (nonzero stride) advance.  Pure float/array code:
   all observable accounting was charged in bulk by the caller. *)
let vkern_iters (ops : B.kop array) (fregs : float array)
    (datas : Value.t array array) (offs : int array) (deltas : int array)
    (adv : int array) ~iv0 ~step ~count =
  let nops = Array.length ops in
  let nadv = Array.length adv in
  let iv = ref iv0 in
  for _ = 1 to count do
    for pc = 0 to nops - 1 do
      match Array.unsafe_get ops pc with
      | B.OLit (d, x) -> Array.unsafe_set fregs d x
      | B.OMov (d, a) -> Array.unsafe_set fregs d (Array.unsafe_get fregs a)
      | B.OAdd (d, a, b) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a +. Array.unsafe_get fregs b)
      | B.OSub (d, a, b) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a -. Array.unsafe_get fregs b)
      | B.OMul (d, a, b) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
      | B.ODiv (d, a, b) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a /. Array.unsafe_get fregs b)
      | B.ONeg (d, a) -> Array.unsafe_set fregs d (-.Array.unsafe_get fregs a)
      | B.OItoF d -> Array.unsafe_set fregs d (float_of_int !iv)
      | B.OMath1 (d, g, a) ->
          Array.unsafe_set fregs d (g (Array.unsafe_get fregs a))
      | B.OMath2 (d, g, a, b) ->
          Array.unsafe_set fregs d
            (g (Array.unsafe_get fregs a) (Array.unsafe_get fregs b))
      | B.OLoad (d, si) -> Array.unsafe_set fregs d (vk_ld datas offs si)
      | B.OStore (si, r) -> vk_st datas offs si (Array.unsafe_get fregs r)
      | B.OStoreAdd (si, r) ->
          vk_st datas offs si (vk_ld datas offs si +. Array.unsafe_get fregs r)
      | B.OStoreSub (si, r) ->
          vk_st datas offs si (vk_ld datas offs si -. Array.unsafe_get fregs r)
      | B.OStoreMul (si, r) ->
          vk_st datas offs si (vk_ld datas offs si *. Array.unsafe_get fregs r)
      | B.OStoreDiv (si, r) ->
          vk_st datas offs si (vk_ld datas offs si /. Array.unsafe_get fregs r)
      | B.OLAddA (d, s, b) ->
          Array.unsafe_set fregs d
            (vk_ld datas offs s +. Array.unsafe_get fregs b)
      | B.OLAddB (d, a, s) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a +. vk_ld datas offs s)
      | B.OLSubA (d, s, b) ->
          Array.unsafe_set fregs d
            (vk_ld datas offs s -. Array.unsafe_get fregs b)
      | B.OLSubB (d, a, s) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a -. vk_ld datas offs s)
      | B.OLMulA (d, s, b) ->
          Array.unsafe_set fregs d
            (vk_ld datas offs s *. Array.unsafe_get fregs b)
      | B.OLMulB (d, a, s) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a *. vk_ld datas offs s)
      | B.OLDivA (d, s, b) ->
          Array.unsafe_set fregs d
            (vk_ld datas offs s /. Array.unsafe_get fregs b)
      | B.OLDivB (d, a, s) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a /. vk_ld datas offs s)
      | B.OAddAddA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a +. Array.unsafe_get fregs b
            +. Array.unsafe_get fregs c)
      | B.OAddAddB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            +. (Array.unsafe_get fregs a +. Array.unsafe_get fregs b))
      | B.OAddSubA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a +. Array.unsafe_get fregs b
            -. Array.unsafe_get fregs c)
      | B.OAddSubB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            -. (Array.unsafe_get fregs a +. Array.unsafe_get fregs b))
      | B.OAddMulA (d, a, b, c) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a +. Array.unsafe_get fregs b)
            *. Array.unsafe_get fregs c)
      | B.OAddMulB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            *. (Array.unsafe_get fregs a +. Array.unsafe_get fregs b))
      | B.OSubAddA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a -. Array.unsafe_get fregs b
            +. Array.unsafe_get fregs c)
      | B.OSubAddB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            +. (Array.unsafe_get fregs a -. Array.unsafe_get fregs b))
      | B.OSubSubA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a -. Array.unsafe_get fregs b
            -. Array.unsafe_get fregs c)
      | B.OSubSubB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            -. (Array.unsafe_get fregs a -. Array.unsafe_get fregs b))
      | B.OSubMulA (d, a, b, c) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a -. Array.unsafe_get fregs b)
            *. Array.unsafe_get fregs c)
      | B.OSubMulB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            *. (Array.unsafe_get fregs a -. Array.unsafe_get fregs b))
      | B.OMulAddA (d, a, b, c) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            +. Array.unsafe_get fregs c)
      | B.OMulAddB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            +. (Array.unsafe_get fregs a *. Array.unsafe_get fregs b))
      | B.OMulSubA (d, a, b, c) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            -. Array.unsafe_get fregs c)
      | B.OMulSubB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            -. (Array.unsafe_get fregs a *. Array.unsafe_get fregs b))
      | B.OMulMulA (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs a *. Array.unsafe_get fregs b
            *. Array.unsafe_get fregs c)
      | B.OMulMulB (d, a, b, c) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs c
            *. (Array.unsafe_get fregs a *. Array.unsafe_get fregs b))
      | B.OGDiv (d, g, a, q) ->
          Array.unsafe_set fregs d
            (g (Array.unsafe_get fregs a) /. Array.unsafe_get fregs q)
      | B.ODivG (d, p, g, a) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs p /. g (Array.unsafe_get fregs a))
      | B.OGMul (d, g, a, q) ->
          Array.unsafe_set fregs d
            (g (Array.unsafe_get fregs a) *. Array.unsafe_get fregs q)
      | B.OMulG (d, p, g, a) ->
          Array.unsafe_set fregs d
            (Array.unsafe_get fregs p *. g (Array.unsafe_get fregs a))
      | B.OAddStore (s, a, b) ->
          vk_st datas offs s
            (Array.unsafe_get fregs a +. Array.unsafe_get fregs b)
      | B.OSubStore (s, a, b) ->
          vk_st datas offs s
            (Array.unsafe_get fregs a -. Array.unsafe_get fregs b)
      | B.OMulStore (s, a, b) ->
          vk_st datas offs s
            (Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
      | B.ODivStore (s, a, b) ->
          vk_st datas offs s
            (Array.unsafe_get fregs a /. Array.unsafe_get fregs b)
      | B.OMulMulAdd (d, a, b, p, q) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            +. (Array.unsafe_get fregs p *. Array.unsafe_get fregs q))
      | B.ODot3 (d, a, b, p, q, x, y) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            +. (Array.unsafe_get fregs p *. Array.unsafe_get fregs q)
            +. (Array.unsafe_get fregs x *. Array.unsafe_get fregs y))
      | B.ODot3Add (d, a, b, p, q, x, y, e) ->
          Array.unsafe_set fregs d
            ((Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
            +. (Array.unsafe_get fregs p *. Array.unsafe_get fregs q)
            +. (Array.unsafe_get fregs x *. Array.unsafe_get fregs y)
            +. Array.unsafe_get fregs e)
    done;
    for j = 0 to nadv - 1 do
      let si = Array.unsafe_get adv j in
      Array.unsafe_set offs si
        (Array.unsafe_get offs si + Array.unsafe_get deltas si)
    done;
    iv := !iv + step
  done

(* Specialized-kernel execution for the VM.  The entry protocol checks
   every precondition before any state mutation ([Kernel_unfit] aborts to
   the faithfully lowered loop); once committed, the whole loop's
   accounting is charged in bulk — exactly what the walker's
   per-iteration charges of [forig] add up to — and the fused
   micro-program runs.  The focus-tracking path needs per-access hooks
   in generic order, so it runs the original kinstr body instead. *)
let vkernel st ~track fr lidx (kp : B.kprog) =
  let k = kp.B.kp_kern in
  let iter_cost = Profile.Cost.loop_iter +. Profile.Cost.int_op in
  let per_iter =
    k.Resolve.k_bcost +. iter_cost +. k.Resolve.k_gcost
    +. k.Resolve.k_dyn_cycles +. k.Resolve.k_scost
  in
  let body = k.Resolve.k_body in
  let nbody = Array.length body in
  let nsites = Array.length k.Resolve.k_sites in
  let loads_per_iter = Array.fold_left ( + ) 0 k.Resolve.k_site_loads in
  let stores_per_iter = Array.fold_left ( + ) 0 k.Resolve.k_site_stores in
  let fuel_per_iter = 1 + k.Resolve.k_nstmts in
  let rec ieval iv (ie : Resolve.iexpr) =
    match ie with
    | Resolve.ILit n -> n
    | Resolve.IIdx -> iv
    | Resolve.ISlot i -> (
        match Array.unsafe_get fr i with
        | VInt n -> n
        | VBool b -> if b then 1 else 0
        | VFloat _ | VUnit | VPtr _ -> raise Kernel_unfit)
    | Resolve.IAdd (a, b) -> ieval iv a + ieval iv b
    | Resolve.ISub (a, b) -> ieval iv a - ieval iv b
    | Resolve.IMul (a, b) -> ieval iv a * ieval iv b
    | Resolve.INeg a -> -ieval iv a
  in
  let i0 = ieval 0 k.Resolve.k_init in
  let b = ieval 0 k.Resolve.k_bound in
  let s = ieval 0 k.Resolve.k_step in
  let sane v = -0x4000_0000_0000 < v && v < 0x4000_0000_0000 in
  if s <= 0 || not (sane i0 && sane b && sane s) then raise Kernel_unfit;
  let n =
    if k.Resolve.k_inclusive then if i0 <= b then ((b - i0) / s) + 1 else 0
    else if i0 < b then (b - i0 + s - 1) / s
    else 0
  in
  if n >= st.fuel then raise Kernel_unfit;
  let fuel_used = 1 + (n * fuel_per_iter) in
  if st.fuel <= fuel_used then raise Kernel_unfit;
  if n = 0 then (
    st.fuel <- st.fuel - 1;
    let stat = cached_loop_stat st lidx k.Resolve.k_fsid in
    stat.invocations <- stat.invocations + 1;
    let t0 = cycles st in
    charge st (k.Resolve.k_icost +. k.Resolve.k_bcost);
    st.prof.int_ops <-
      st.prof.int_ops + k.Resolve.k_init_int_ops + k.Resolve.k_bound_int_ops;
    Array.unsafe_set fr k.Resolve.k_idx_slot (VInt i0);
    stat.min_trip <- min stat.min_trip 0;
    stat.max_trip <- max stat.max_trip 0;
    stat.cycles <- stat.cycles +. (cycles st -. t0))
  else (
    let datas = Array.make nsites [||] in
    let offs = Array.make nsites 0 in
    let deltas = Array.make nsites 0 in
    let elems = Array.make nsites 0 in
    let ids = Array.make nsites 0 in
    let bytes_r = ref 0 and bytes_w = ref 0 in
    for si = 0 to nsites - 1 do
      let site = k.Resolve.k_sites.(si) in
      match Array.unsafe_get fr site.Resolve.ks_base with
      | VPtr p ->
          if p.mem_id < 0 || p.mem_id >= st.mem.Memory.next_id then
            raise Kernel_unfit;
          let r = Array.unsafe_get st.mem.Memory.regions p.mem_id in
          (match r.Memory.elem_typ with
          | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> ()
          | _ -> raise Kernel_unfit);
          let len = Array.length r.Memory.data in
          let o0 = p.off + ieval i0 site.Resolve.ks_idx in
          let olast =
            p.off + ieval (i0 + ((n - 1) * s)) site.Resolve.ks_idx
          in
          if o0 < 0 || o0 >= len || olast < 0 || olast >= len then
            raise Kernel_unfit;
          datas.(si) <- r.Memory.data;
          offs.(si) <- o0;
          deltas.(si) <-
            (if n > 1 then p.off + ieval (i0 + s) site.Resolve.ks_idx - o0
             else 0);
          elems.(si) <- r.Memory.elem_bytes;
          ids.(si) <- p.mem_id;
          bytes_r :=
            !bytes_r + (k.Resolve.k_site_loads.(si) * r.Memory.elem_bytes);
          bytes_w :=
            !bytes_w + (k.Resolve.k_site_stores.(si) * r.Memory.elem_bytes)
      | _ -> raise Kernel_unfit
    done;
    let fregs = Array.make (max 1 k.Resolve.k_nfregs) 0.0 in
    Array.iter
      (fun (slot, reg) ->
        match Array.unsafe_get fr slot with
        | VFloat f -> Array.unsafe_set fregs reg f
        | VInt n -> Array.unsafe_set fregs reg (float_of_int n)
        | VBool b -> Array.unsafe_set fregs reg (if b then 1.0 else 0.0)
        | VUnit | VPtr _ -> raise Kernel_unfit)
      k.Resolve.k_in;
    (* ---- committed: bulk accounting of cycles, counters, fuel and
       loop stats; the body below only moves data (and, when
       tracking, the focus hooks) ---- *)
    st.fuel <- st.fuel - fuel_used;
    let stat = cached_loop_stat st lidx k.Resolve.k_fsid in
    stat.invocations <- stat.invocations + 1;
    let t0 = cycles st in
    let total =
      k.Resolve.k_icost +. k.Resolve.k_bcost +. (float_of_int n *. per_iter)
    in
    charge st total;
    st.bulk_cycles <- st.bulk_cycles +. total;
    st.prof.int_ops <-
      st.prof.int_ops + k.Resolve.k_init_int_ops
      + ((n + 1) * k.Resolve.k_bound_int_ops)
      + (n * (k.Resolve.k_step_int_ops + k.Resolve.k_int_ops));
    st.prof.flops <- st.prof.flops + (n * k.Resolve.k_flops);
    if k.Resolve.k_sfu > 0 then
      st.prof.sfu_ops <- st.prof.sfu_ops + (n * k.Resolve.k_sfu);
    if loads_per_iter > 0 then (
      st.prof.loads <- st.prof.loads + (n * loads_per_iter);
      st.prof.bytes_read <- st.prof.bytes_read + (n * !bytes_r));
    if stores_per_iter > 0 then (
      st.prof.stores <- st.prof.stores + (n * stores_per_iter);
      st.prof.bytes_written <- st.prof.bytes_written + (n * !bytes_w));
    stat.iterations <- stat.iterations + n;
    let do_track = track && st.focus_depth > 0 in
    if do_track then (
      (* focus tracking: run the original kinstr body with per-access
         hooks in generic order *)
      let rmw fop si r =
        let off = Array.unsafe_get offs si in
        let data = Array.unsafe_get datas si in
        let old =
          match Array.unsafe_get data off with
          | VFloat f -> f
          | v -> to_float v
        in
        track_focus_access st ~write:false (Array.unsafe_get ids si) off
          (Array.unsafe_get elems si);
        Array.unsafe_set data off
          (VFloat (fop old (Array.unsafe_get fregs r)));
        track_focus_access st ~write:true (Array.unsafe_get ids si) off
          (Array.unsafe_get elems si)
      in
      let iv = ref i0 in
      for _ = 1 to n do
        for pc = 0 to nbody - 1 do
          match Array.unsafe_get body pc with
          | Resolve.KLit (d, x) -> Array.unsafe_set fregs d x
          | Resolve.KMov (d, a) ->
              Array.unsafe_set fregs d (Array.unsafe_get fregs a)
          | Resolve.KAdd (d, a, b) ->
              Array.unsafe_set fregs d
                (Array.unsafe_get fregs a +. Array.unsafe_get fregs b)
          | Resolve.KSub (d, a, b) ->
              Array.unsafe_set fregs d
                (Array.unsafe_get fregs a -. Array.unsafe_get fregs b)
          | Resolve.KMul (d, a, b) ->
              Array.unsafe_set fregs d
                (Array.unsafe_get fregs a *. Array.unsafe_get fregs b)
          | Resolve.KDiv (d, a, b) ->
              Array.unsafe_set fregs d
                (Array.unsafe_get fregs a /. Array.unsafe_get fregs b)
          | Resolve.KNeg (d, a) ->
              Array.unsafe_set fregs d (-.Array.unsafe_get fregs a)
          | Resolve.KItoF d -> Array.unsafe_set fregs d (float_of_int !iv)
          | Resolve.KMath1 (d, g, a) ->
              Array.unsafe_set fregs d (g (Array.unsafe_get fregs a))
          | Resolve.KMath2 (d, g, a, b) ->
              Array.unsafe_set fregs d
                (g (Array.unsafe_get fregs a) (Array.unsafe_get fregs b))
          | Resolve.KLoad (d, si) ->
              let off = Array.unsafe_get offs si in
              (match Array.unsafe_get (Array.unsafe_get datas si) off with
              | VFloat f -> Array.unsafe_set fregs d f
              | v -> Array.unsafe_set fregs d (to_float v));
              track_focus_access st ~write:false (Array.unsafe_get ids si)
                off (Array.unsafe_get elems si)
          | Resolve.KStore (si, r) ->
              let off = Array.unsafe_get offs si in
              Array.unsafe_set (Array.unsafe_get datas si) off
                (VFloat (Array.unsafe_get fregs r));
              track_focus_access st ~write:true (Array.unsafe_get ids si) off
                (Array.unsafe_get elems si)
          | Resolve.KStoreAdd (si, r) -> rmw ( +. ) si r
          | Resolve.KStoreSub (si, r) -> rmw ( -. ) si r
          | Resolve.KStoreMul (si, r) -> rmw ( *. ) si r
          | Resolve.KStoreDiv (si, r) -> rmw ( /. ) si r
        done;
        for si = 0 to nsites - 1 do
          Array.unsafe_set offs si
            (Array.unsafe_get offs si + Array.unsafe_get deltas si)
        done;
        iv := !iv + s
      done)
    else (
      (* fused micro-program: entry banks first, then the iterations *)
      Array.iter
        (fun (d, x) -> Array.unsafe_set fregs d x)
        kp.B.kp_lits;
      Array.iter
        (fun (d, si) -> Array.unsafe_set fregs d (vk_ld datas offs si))
        kp.B.kp_prefetch;
      let nadv = ref 0 in
      for si = 0 to nsites - 1 do
        if deltas.(si) <> 0 then incr nadv
      done;
      let adv = Array.make !nadv 0 in
      let j = ref 0 in
      for si = 0 to nsites - 1 do
        if deltas.(si) <> 0 then (
          adv.(!j) <- si;
          incr j)
      done;
      vkern_iters kp.B.kp_ops fregs datas offs deltas adv ~iv0:i0 ~step:s
        ~count:n);
    Array.iter
      (fun (slot, reg) ->
        Array.unsafe_set fr slot (VFloat (Array.unsafe_get fregs reg)))
      k.Resolve.k_out;
    Array.unsafe_set fr k.Resolve.k_idx_slot (VInt (i0 + (n * s)));
    stat.min_trip <- min stat.min_trip n;
    stat.max_trip <- max stat.max_trip n;
    stat.cycles <- stat.cycles +. (cycles st -. t0))

(* VM driver: a flat tail-recursive dispatch loop over the instruction
   array.  Every arm replays the walker's charges, counter bumps, fuel
   spends and error points for the construct it was lowered from — the
   test suite asserts fingerprint identity against {!run_ir}. *)

let vset_slot st regs (slot : Resolve.var_ref) v =
  match slot with
  | Resolve.Local i -> Array.unsafe_set regs i v
  | Resolve.Global g -> Array.unsafe_set st.garray g v
  | Resolve.Unbound n -> err "undefined variable '%s'" n

let vget_slot st regs (slot : Resolve.var_ref) =
  match slot with
  | Resolve.Local i -> Array.unsafe_get regs i
  | Resolve.Global g -> Array.unsafe_get st.garray g
  | Resolve.Unbound n -> err "undefined variable '%s'" n

let rec vrun st (bp : B.program) ~track (code : B.instr array)
    (regs : Value.t array) (si : int array) (sf : float array) : Value.t =
  let load_at = if track then load_r_tracked else load_r in
  let store_at = if track then store_r_tracked else store_r in
  let rec go pc =
    match Array.unsafe_get code pc with
    | B.IFuel ->
        spend_fuel st;
        go (pc + 1)
    | B.ICharge c ->
        charge st c;
        go (pc + 1)
    | B.IJmp t -> go t
    | B.IJmpFalse (src, tgt) ->
        if to_bool (Array.unsafe_get regs src) then go (pc + 1) else go tgt
    | B.IBrCmp { op; kind; a; b; tgt } ->
        let va = Array.unsafe_get regs a and vb = Array.unsafe_get regs b in
        let fl =
          match kind with
          | B.KDyn -> is_float va || is_float vb
          | B.KFlt -> true
          | B.KInt -> false
        in
        if do_cmp op fl va vb then go (pc + 1) else go tgt
    | B.IMov (d, a) ->
        Array.unsafe_set regs d (Array.unsafe_get regs a);
        go (pc + 1)
    | B.IGetG (d, g) ->
        Array.unsafe_set regs d (Array.unsafe_get st.garray g);
        go (pc + 1)
    | B.ISetG (g, src) ->
        Array.unsafe_set st.garray g (Array.unsafe_get regs src);
        go (pc + 1)
    | B.IErrVar n -> err "undefined variable '%s'" n
    | B.IErrMsg m -> raise (Value.Runtime_error m)
    | B.IFailHd -> raise (Failure "hd")
    | B.INeg (d, a) ->
        (match Array.unsafe_get regs a with
        | VInt n -> Array.unsafe_set regs d (VInt (-n))
        | VFloat f ->
            st.prof.flops <- st.prof.flops + 1;
            Array.unsafe_set regs d (VFloat (-.f))
        | _ -> err "negation of a non-numeric value");
        go (pc + 1)
    | B.INot (d, a) ->
        Array.unsafe_set regs d
          (vbool (not (to_bool (Array.unsafe_get regs a))));
        go (pc + 1)
    | B.IArith { op; fresid; d; a; b } ->
        Array.unsafe_set regs d
          (do_arith st op fresid (Array.unsafe_get regs a)
             (Array.unsafe_get regs b));
        go (pc + 1)
    | B.IArithF { op; fresid; d; a; b } ->
        let va = Array.unsafe_get regs a and vb = Array.unsafe_get regs b in
        if fresid <> 0.0 then charge st fresid;
        st.prof.flops <- st.prof.flops + 1;
        Array.unsafe_set regs d
          (match op with
          | Minic.Ast.Add -> VFloat (to_float va +. to_float vb)
          | Minic.Ast.Sub -> VFloat (to_float va -. to_float vb)
          | Minic.Ast.Mul -> VFloat (to_float va *. to_float vb)
          | _ -> assert false);
        go (pc + 1)
    | B.IArithI { op; d; a; b } ->
        let va = Array.unsafe_get regs a and vb = Array.unsafe_get regs b in
        st.prof.int_ops <- st.prof.int_ops + 1;
        Array.unsafe_set regs d
          (match op with
          | Minic.Ast.Add -> VInt (to_int va + to_int vb)
          | Minic.Ast.Sub -> VInt (to_int va - to_int vb)
          | Minic.Ast.Mul -> VInt (to_int va * to_int vb)
          | _ -> assert false);
        go (pc + 1)
    | B.IDiv (d, a, b) ->
        Array.unsafe_set regs d
          (do_div st (Array.unsafe_get regs a) (Array.unsafe_get regs b));
        go (pc + 1)
    | B.IDivF (d, a, b) ->
        let va = Array.unsafe_get regs a and vb = Array.unsafe_get regs b in
        charge st Profile.Cost.float_div;
        st.prof.flops <- st.prof.flops + 1;
        Array.unsafe_set regs d (VFloat (to_float va /. to_float vb));
        go (pc + 1)
    | B.IDivI (d, a, b) ->
        let va = Array.unsafe_get regs a and vb = Array.unsafe_get regs b in
        charge st Profile.Cost.int_op;
        st.prof.int_ops <- st.prof.int_ops + 1;
        let dv = to_int vb in
        if dv = 0 then err "integer division by zero";
        Array.unsafe_set regs d (VInt (to_int va / dv));
        go (pc + 1)
    | B.IMod (d, a, b) ->
        Array.unsafe_set regs d
          (do_mod st (Array.unsafe_get regs a) (Array.unsafe_get regs b));
        go (pc + 1)
    | B.ICmp { op; kind; d; a; b } ->
        let va = Array.unsafe_get regs a and vb = Array.unsafe_get regs b in
        let fl =
          match kind with
          | B.KDyn -> is_float va || is_float vb
          | B.KFlt -> true
          | B.KInt -> false
        in
        Array.unsafe_set regs d (vbool (do_cmp op fl va vb));
        go (pc + 1)
    | B.ICastI (d, a) ->
        Array.unsafe_set regs d (VInt (to_int (Array.unsafe_get regs a)));
        go (pc + 1)
    | B.ICastF (d, a) ->
        Array.unsafe_set regs d (VFloat (to_float (Array.unsafe_get regs a)));
        go (pc + 1)
    | B.ICastB (d, a) ->
        Array.unsafe_set regs d (vbool (to_bool (Array.unsafe_get regs a)));
        go (pc + 1)
    | B.IIndex { d; a; i } ->
        let p = to_ptr (Array.unsafe_get regs a) in
        let ii = to_int (Array.unsafe_get regs i) in
        Array.unsafe_set regs d
          (load_at st (Memory.region st.mem p.mem_id) (p.off + ii));
        go (pc + 1)
    | B.IFolded { d; fval; f_flops; f_int_ops; f_dyn } ->
        if f_dyn <> 0.0 then charge st f_dyn;
        if f_flops <> 0 then st.prof.flops <- st.prof.flops + f_flops;
        if f_int_ops <> 0 then st.prof.int_ops <- st.prof.int_ops + f_int_ops;
        Array.unsafe_set regs d fval;
        go (pc + 1)
    | B.IHoisted { glob; hslot; h_flops; h_sfu; h_dyn; d; tgt } -> (
        let bank = if glob then st.garray else regs in
        match Array.unsafe_get bank hslot with
        | VFloat _ as v ->
            if h_dyn <> 0.0 then charge st h_dyn;
            if h_flops <> 0 then st.prof.flops <- st.prof.flops + h_flops;
            if h_sfu <> 0 then st.prof.sfu_ops <- st.prof.sfu_ops + h_sfu;
            Array.unsafe_set regs d v;
            go tgt
        | _ -> go (pc + 1))
    | B.IHoistSave { glob; hslot; d; src } ->
        let v = Array.unsafe_get regs src in
        (if glob then st.garray else regs).(hslot) <- v;
        Array.unsafe_set regs d v;
        go (pc + 1)
    | B.IHoistReset { glob; slots } ->
        let bank = if glob then st.garray else regs in
        Array.iter (fun i -> Array.unsafe_set bank i VUnit) slots;
        go (pc + 1)
    | B.IAndTest { d; src; bcost; tgt } ->
        if to_bool (Array.unsafe_get regs src) then (
          charge st bcost;
          go (pc + 1))
        else (
          Array.unsafe_set regs d vfalse;
          go tgt)
    | B.IOrTest { d; src; bcost; tgt } ->
        if to_bool (Array.unsafe_get regs src) then (
          Array.unsafe_set regs d vtrue;
          go tgt)
        else (
          charge st bcost;
          go (pc + 1))
    | B.ICallUser { d; fidx; args } ->
        Array.unsafe_set regs d (vcall st bp ~track fidx args regs);
        go (pc + 1)
    | B.IMath1 { d; g; mflops; a } ->
        let v = Array.unsafe_get regs a in
        st.prof.sfu_ops <- st.prof.sfu_ops + 1;
        st.prof.flops <- st.prof.flops + mflops;
        Array.unsafe_set regs d (VFloat (g (to_float v)));
        go (pc + 1)
    | B.IMath2 { d; g; mflops; a; b } ->
        let va = Array.unsafe_get regs a and vb = Array.unsafe_get regs b in
        st.prof.sfu_ops <- st.prof.sfu_ops + 1;
        st.prof.flops <- st.prof.flops + mflops;
        Array.unsafe_set regs d (VFloat (g (to_float va) (to_float vb)));
        go (pc + 1)
    | B.IMathGen { d; mimpl; mflops; args } ->
        st.prof.sfu_ops <- st.prof.sfu_ops + 1;
        st.prof.flops <- st.prof.flops + mflops;
        (match (mimpl, Array.length args) with
        | Resolve.M1 g, n when n >= 1 ->
            Array.unsafe_set regs d
              (VFloat (g (to_float (Array.unsafe_get regs args.(0)))))
        | Resolve.M2 g, n when n >= 2 ->
            Array.unsafe_set regs d
              (VFloat
                 (g
                    (to_float (Array.unsafe_get regs args.(0)))
                    (to_float (Array.unsafe_get regs args.(1)))))
        | _ -> err "math builtin called with too few arguments");
        go (pc + 1)
    | B.IRand01 d ->
        Array.unsafe_set regs d (VFloat (rand01 st));
        go (pc + 1)
    | B.IRandInt (d, a) ->
        Array.unsafe_set regs d
          (VInt (rand_int st (to_int (Array.unsafe_get regs a))));
        go (pc + 1)
    | B.IPrintInt src ->
        Buffer.add_string st.out
          (string_of_int (to_int (Array.unsafe_get regs src)) ^ "\n");
        go (pc + 1)
    | B.IPrintFloat src ->
        Buffer.add_string st.out
          (Printf.sprintf "%.6g\n" (to_float (Array.unsafe_get regs src)));
        go (pc + 1)
    | B.ITimerStart src ->
        let v = Array.unsafe_get regs src in
        sync_cycles st;
        Profile.timer_start st.prof (to_int v);
        go (pc + 1)
    | B.ITimerStop src ->
        let v = Array.unsafe_get regs src in
        sync_cycles st;
        Profile.timer_stop st.prof (to_int v);
        go (pc + 1)
    | B.IAlloc { d; typ; name; src } ->
        let n = to_int (Array.unsafe_get regs src) in
        Array.unsafe_set regs d (Memory.alloc st.mem ~name ~elem_typ:typ n);
        go (pc + 1)
    | B.IApplyAssign { d; aop; old; rhs } ->
        Array.unsafe_set regs d
          (apply_assign st aop (Array.unsafe_get regs old)
             (Array.unsafe_get regs rhs));
        go (pc + 1)
    | B.IStore { arr; idx; src } ->
        let rhs = Array.unsafe_get regs src in
        let p = to_ptr (Array.unsafe_get regs arr) in
        let i = to_int (Array.unsafe_get regs idx) in
        let r = Memory.region st.mem p.mem_id in
        store_at st r (p.off + i) (coerce r.elem_typ rhs);
        go (pc + 1)
    | B.IStoreOp { aop; arr; idx; src } ->
        let rhs = Array.unsafe_get regs src in
        let p = to_ptr (Array.unsafe_get regs arr) in
        let i = to_int (Array.unsafe_get regs idx) in
        let r = Memory.region st.mem p.mem_id in
        let off = p.off + i in
        let v = apply_assign st aop (load_at st r off) rhs in
        store_at st r off v;
        go (pc + 1)
    | B.IDropChk { co; src } ->
        let v = Array.unsafe_get regs src in
        (match co with
        | Minic.Ast.Tint -> ignore (to_int v)
        | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> ignore (to_float v)
        | Minic.Ast.Tbool -> ignore (to_bool v)
        | _ -> ());
        go (pc + 1)
    | B.IRet src -> Array.unsafe_get regs src
    | B.IRetRaise src -> raise (Return_exc (Array.unsafe_get regs src))
    | B.ILoopEnterW { lidx; sid; t0; trips } ->
        let stat = cached_loop_stat st lidx sid in
        stat.invocations <- stat.invocations + 1;
        Array.unsafe_set sf t0 (cycles st);
        Array.unsafe_set si trips 0;
        charge st Profile.Cost.branch;
        go (pc + 1)
    | B.ILoopEnterF { lidx; sid; t0; trips; icost } ->
        let stat = cached_loop_stat st lidx sid in
        stat.invocations <- stat.invocations + 1;
        Array.unsafe_set sf t0 (cycles st);
        charge st icost;
        Array.unsafe_set si trips 0;
        go (pc + 1)
    | B.IWhileIter { src; lidx; sid; trips; tgt } ->
        if to_bool (Array.unsafe_get regs src) then (
          Array.unsafe_set si trips (Array.unsafe_get si trips + 1);
          let stat = cached_loop_stat st lidx sid in
          stat.iterations <- stat.iterations + 1;
          spend_fuel st;
          charge st while_iter_cost;
          go (pc + 1))
        else go tgt
    | B.IForInit { slot; src } ->
        vset_slot st regs slot (VInt (to_int (Array.unsafe_get regs src)));
        go (pc + 1)
    | B.IForTest { slot; bound; inclusive; lidx; sid; trips; tgt } ->
        let b = to_int (Array.unsafe_get regs bound) in
        let i = to_int (vget_slot st regs slot) in
        if if inclusive then i <= b else i < b then (
          Array.unsafe_set si trips (Array.unsafe_get si trips + 1);
          let stat = cached_loop_stat st lidx sid in
          stat.iterations <- stat.iterations + 1;
          spend_fuel st;
          charge st for_iter_cost;
          go (pc + 1))
        else go tgt
    | B.IForStep { slot; src } ->
        let stepv = to_int (Array.unsafe_get regs src) in
        vset_slot st regs slot
          (VInt (to_int (vget_slot st regs slot) + stepv));
        go (pc + 1)
    | B.ILoopExit { lidx; sid; t0; trips } ->
        let stat = cached_loop_stat st lidx sid in
        let tr = Array.unsafe_get si trips in
        stat.min_trip <- min stat.min_trip tr;
        stat.max_trip <- max stat.max_trip tr;
        stat.cycles <- stat.cycles +. (cycles st -. Array.unsafe_get sf t0);
        go (pc + 1)
    | B.IKernel { glob; lidx; kp; tgt } -> (
        let fr = if glob then st.garray else regs in
        match vkernel st ~track fr lidx kp with
        | () -> go tgt
        | exception Kernel_unfit -> go (pc + 1))
  in
  go 0

and vcall st (bp : B.program) ~track fidx (argr : int array)
    (caller : Value.t array) : Value.t =
  let f = st.cprog.cfuncs.(fidx) in
  let fn = bp.B.bc_funcs.(fidx) in
  let regs = Array.make fn.B.bc_nregs VUnit in
  Array.blit fn.B.bc_cvals 0 regs fn.B.bc_cbase (Array.length fn.B.bc_cvals);
  Array.iteri
    (fun i r ->
      Array.unsafe_set regs
        (Array.unsafe_get f.Resolve.cf_param_slots i)
        (Array.unsafe_get caller r))
    argr;
  let si = Array.make (max 1 fn.B.bc_nsi) 0 in
  let sf = Array.make (max 1 fn.B.bc_nsf) 0.0 in
  if not track then vrun st bp ~track fn.B.bc_code regs si sf
  else begin
    let is_focus = fidx = st.focus_idx && st.focus_depth = 0 in
    if is_focus then
      enter_focus st f
        (Array.to_list (Array.map (fun r -> caller.(r)) argr));
    let snapshot = counters_snapshot st in
    let result = vrun st bp ~track fn.B.bc_code regs si sf in
    if is_focus then exit_focus st snapshot;
    result
  end

(* Entry path for [main]: arity check, focus bracketing even when the
   run has no focus (the test is cheap and happens once). *)
let vcall_main st (bp : B.program) ~track idx : Value.t =
  let f = st.cprog.cfuncs.(idx) in
  if List.length f.Resolve.cf_params <> 0 then
    err "call to '%s' with wrong arity" f.Resolve.cf_name;
  let fn = bp.B.bc_funcs.(idx) in
  let regs = Array.make fn.B.bc_nregs VUnit in
  Array.blit fn.B.bc_cvals 0 regs fn.B.bc_cbase (Array.length fn.B.bc_cvals);
  let si = Array.make (max 1 fn.B.bc_nsi) 0 in
  let sf = Array.make (max 1 fn.B.bc_nsf) 0.0 in
  let is_focus = idx = st.focus_idx && st.focus_depth = 0 in
  if is_focus then enter_focus st f [];
  let snapshot = counters_snapshot st in
  let result = vrun st bp ~track fn.B.bc_code regs si sf in
  if is_focus then exit_focus st snapshot;
  result

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Result of running a program. *)
type run = {
  profile : Profile.t;
  output : string;  (** everything printed by [print_int]/[print_float] *)
  return_value : Value.t;
}

(** A compiled program: the slot IR plus its lazily lowered register
    bytecode. *)
type compiled = { cp : Resolve.t; vm : Bytecode.program Lazy.t }

(** Compile an already-resolved slot IR, without running the
    optimizer — the entry point for per-pass identity tests that supply
    their own (partially) optimized IR.

    @param vm_hot heat oracle for the bytecode lowering's
      superinstruction selector: [vm_hot sid] says whether the fused
      loop with that statement id is worth rewriting (default: all
      hot).  See {!Bytecode.hot_of_profile}. *)
let compile_resolved ?vm_hot (cp : Resolve.t) : compiled =
  { cp; vm = lazy (Bytecode.lower ?hot:vm_hot cp) }

(** Compile a program once; the result can be executed many times with
    {!run_compiled}.  The slot IR is optimized by {!Opt.optimize} first
    unless [PSAFLOW_NO_OPT] is set.  The bytecode is lowered lazily on
    first use.

    @param vm_profile a profile from a previous run of the same
      program; when given, the bytecode superinstruction selector only
      rewrites kernels whose loops were hot in it *)
let compile ?vm_profile p : compiled =
  Flow_obs.Trace.with_span ~cat:"interp" "interp.compile" (fun () ->
      let cp = Resolve.compile p in
      let cp = if Opt.is_enabled () then Opt.optimize cp else cp in
      compile_resolved
        ?vm_hot:(Option.map Bytecode.hot_of_profile vm_profile)
        cp)

(** Force the lazily lowered bytecode.  [Lazy.force] is not safe under
    concurrent domains, so a [compiled] value that will be shared across
    domains (the compile-stage memo in {!Profile_cache}) must be forced
    eagerly by the publishing domain before the value becomes visible to
    others. *)
let force_engines (c : compiled) : unit = ignore (Lazy.force c.vm)

let make_state ?focus ~fuel (cp : Resolve.t) =
  let focus_idx =
    match focus with
    | None -> -1
    | Some name -> (
        match Hashtbl.find_opt cp.func_index name with
        | Some i -> i
        | None -> -1)
  in
  {
    cprog = cp;
    mem = Memory.create ();
    prof = Profile.create ();
    garray = Array.make (max 1 cp.nglobals) VUnit;
    out = Buffer.create 256;
    rng = 123456789;
    focus_idx;
    focus_depth = 0;
    focus_track = [||];
    focus_order = [];
    fuel;
    loop_cache = [||];
    bulk_cycles = 0.0;
    cyc = [| 0.0 |];
  }

(** Run an already-compiled program from [main] through the register
    bytecode VM (same observable semantics as {!run_ir}, bit for bit —
    output, return value, full profile). *)
let run_compiled ?focus ?(fuel = 200_000_000) (c : compiled) : run =
  Flow_obs.Trace.with_span ~cat:"interp" "interp.eval" @@ fun () ->
  let st = make_state ?focus ~fuel c.cp in
  let bp = Lazy.force c.vm in
  st.loop_cache <- Array.make (max 1 bp.Bytecode.bc_nloops) None;
  let track = st.focus_idx >= 0 in
  (* globals evaluate in the global frame; a stray [return] there
     escapes as [Return_exc], exactly like the walker *)
  let g = bp.Bytecode.bc_globals in
  let gregs = Array.make g.Bytecode.bc_nregs VUnit in
  Array.blit g.Bytecode.bc_cvals 0 gregs g.Bytecode.bc_cbase
    (Array.length g.Bytecode.bc_cvals);
  let gsi = Array.make (max 1 g.Bytecode.bc_nsi) 0 in
  let gsf = Array.make (max 1 g.Bytecode.bc_nsf) 0.0 in
  ignore (vrun st bp ~track g.Bytecode.bc_code gregs gsi gsf);
  if c.cp.main_idx < 0 then err "program has no 'main' function";
  charge st Profile.Cost.call;
  let return_value = vcall_main st bp ~track c.cp.main_idx in
  sync_cycles st;
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "interp_runs";
  Flow_obs.Metrics.observe Flow_obs.Metrics.global "interp_virtual_cycles"
    st.prof.cycles;
  if st.bulk_cycles > 0.0 then
    Flow_obs.Metrics.observe Flow_obs.Metrics.global "interp_bulk_cycles"
      st.bulk_cycles;
  Flow_obs.Trace.add_args
    [ ("virtual_cycles", Flow_obs.Attr.Float st.prof.cycles) ];
  { profile = st.prof; output = Buffer.contents st.out; return_value }

(** Run the slot IR through the reference tree walker.  Counted as
    [interp_ir_runs] (not [interp_runs]): this path exists for
    bit-identity checking and before/after benchmarking, not for the
    flow. *)
let run_ir ?focus ?(fuel = 200_000_000) (cp : Resolve.t) : run =
  let st = make_state ?focus ~fuel cp in
  Ir_walk.exec_block st st.garray cp.cglobals;
  if cp.main_idx < 0 then err "program has no 'main' function";
  charge st Profile.Cost.call;
  let return_value = Ir_walk.eval_user_call st cp.main_idx [] in
  sync_cycles st;
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "interp_ir_runs";
  { profile = st.prof; output = Buffer.contents st.out; return_value }

(** Run [program] from [main].

    @param focus name of the kernel function to profile as an offload
      candidate (collects {!Profile.kernel_obs})
    @param fuel statement-execution budget; the default (200 million) is a
      safety net against accidental infinite loops in transformed code *)
let run ?focus ?fuel (program : Minic.Ast.program) : run =
  run_compiled ?focus ?fuel (compile program)
