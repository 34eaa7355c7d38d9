(** Hardened environment-knob parsing.

    The engine's tuning knobs ([PSAFLOW_JOBS], [PSAFLOW_MEMO_CAP],
    [PSAFLOW_SERVICE_WORKERS], ...) are positive integers.  Reading them
    with a bare [int_of_string_opt] silently accepted zero and negative
    values — each call site then "handled" them differently (ignore,
    crash in [Scheduler.create], allocate a zero-capacity cache).  This
    module gives every knob the same contract: non-integers are ignored
    with a warning, below-minimum values are clamped to the minimum with
    a warning, and each distinct complaint is logged once per process
    through {!Log} no matter how often the knob is re-read. *)

let warned : (string, unit) Hashtbl.t = Hashtbl.create 8
let warned_mutex = Mutex.create ()

let warn_once key fmt =
  let fresh =
    Mutex.lock warned_mutex;
    let fresh = not (Hashtbl.mem warned key) in
    if fresh then Hashtbl.replace warned key ();
    Mutex.unlock warned_mutex;
    fresh
  in
  if fresh then Log.warnf fmt else Printf.ifprintf () fmt

(** Forget which warnings were already emitted (tests). *)
let reset_warnings () =
  Mutex.lock warned_mutex;
  Hashtbl.reset warned;
  Mutex.unlock warned_mutex

(** Read integer knob [name].  [None] when unset or unparsable (with a
    once-per-process warning for the latter); values below [min] clamp
    to [min] with a once-per-process warning. *)
let int_opt ~name ~min:lo () =
  match Sys.getenv_opt name with
  | None -> None
  | Some raw -> (
      match int_of_string_opt (String.trim raw) with
      | None ->
          warn_once (name ^ "#parse") "%s=%S is not an integer; ignoring" name
            raw;
          None
      | Some v when v < lo ->
          warn_once (name ^ "#clamp") "%s=%d is below the minimum of %d; using %d"
            name v lo lo;
          Some lo
      | Some v -> Some v)

(** Like {!int_opt} with a [default] when the knob is unset or
    unparsable. *)
let int ~name ~default ~min () =
  match int_opt ~name ~min () with Some v -> v | None -> default

(** Read boolean kill-switch knob [name]: true iff the variable is set
    to ["1"], ["true"] or ["yes"] (the convention shared by
    [PSAFLOW_NO_MEMO], [PSAFLOW_NO_OPT] and [PSAFLOW_NO_SURROGATE]).
    Any other value — including empty — leaves the switch off, with a
    once-per-process warning so a typo'd [PSAFLOW_NO_OPT=on] does not
    silently run the optimizer. *)
let flag ~name () =
  match Sys.getenv_opt name with
  | None -> false
  | Some ("1" | "true" | "yes") -> true
  | Some raw ->
      warn_once (name ^ "#flag")
        "%s=%S is not one of 1/true/yes; treating the switch as off" name raw;
      false
