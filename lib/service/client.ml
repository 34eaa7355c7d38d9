(** Blocking client for the flow daemon: connect, exchange one frame per
    request, poll jobs to completion.  Used by the [psaflow] service
    subcommands, the load harness and the end-to-end tests.

    Timeouts: [connect ~timeout_ms] (or [PSAFLOW_CLIENT_TIMEOUT_MS])
    bounds both the connect handshake and every subsequent receive.  An
    expired timeout raises {!Protocol_failure} with
    [Protocol.Timeout _] — a typed protocol-level error, not a bare
    string — so callers can distinguish "slow daemon" from "daemon said
    no".  Unset means the historical fully-blocking behaviour. *)

type conn = { fd : Unix.file_descr }

exception Client_error of string

(** A typed protocol error surfaced client-side: [Timeout] when a
    configured deadline expires, [Server_busy] relayed from a daemon at
    its connection cap, etc. *)
exception Protocol_failure of Protocol.error_kind

let fail fmt = Printf.ksprintf (fun m -> raise (Client_error m)) fmt
let timeout what = raise (Protocol_failure (Protocol.Timeout what))

let default_timeout_ms () =
  Flow_obs.Env.int_opt ~name:"PSAFLOW_CLIENT_TIMEOUT_MS" ~min:1 ()

(* Bounded connect: non-blocking connect, select for writability, then
   SO_ERROR tells us whether the handshake actually succeeded. *)
let connect_deadline fd sockaddr ms =
  Unix.set_nonblock fd;
  (match Unix.connect fd sockaddr with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
      match Unix.select [] [ fd ] [] (float_of_int ms /. 1000.0) with
      | [], [], [] -> timeout (Printf.sprintf "connect after %dms" ms)
      | _ -> (
          match Unix.getsockopt_error fd with
          | None -> ()
          | Some e -> raise (Unix.Unix_error (e, "connect", "")))));
  Unix.clear_nonblock fd

let connect ?timeout_ms (addr : Protocol.addr) : conn =
  let timeout_ms =
    match timeout_ms with Some _ as t -> t | None -> default_timeout_ms ()
  in
  let domain =
    match addr with
    | Protocol.Unix_path _ -> Unix.PF_UNIX
    | Protocol.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     match timeout_ms with
     | None -> Unix.connect fd (Protocol.sockaddr_of_addr addr)
     | Some ms ->
         connect_deadline fd (Protocol.sockaddr_of_addr addr) ms;
         (* every receive from here on shares the same bound *)
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO (float_of_int ms /. 1000.0)
   with
  | Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail "cannot connect to %s: %s"
        (Protocol.addr_to_string addr)
        (Unix.error_message e)
  | Protocol_failure _ as pf ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise pf);
  { fd }

let close (c : conn) = try Unix.close c.fd with Unix.Unix_error _ -> ()

let with_conn ?timeout_ms addr f =
  let c = connect ?timeout_ms addr in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

(** One request/response exchange on an open connection. *)
let request (c : conn) (req : Protocol.request) : Protocol.response =
  Protocol.write_request c.fd req;
  match Protocol.read_response c.fd with
  | None -> fail "server closed the connection"
  | Some (Error e) -> fail "cannot decode response: %s" (Protocol.error_message e)
  | Some (Ok resp) -> resp
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* SO_RCVTIMEO expired mid-read *)
      timeout "receive"

(** One-shot exchange on a fresh connection. *)
let rpc ?timeout_ms addr req = with_conn ?timeout_ms addr (fun c -> request c req)

(* ------------------------------------------------------------------ *)
(* Request ids (protocol v3)                                           *)
(* ------------------------------------------------------------------ *)

(* "c-<pid hex><start-millis hex>-<n>": unique across this process and
   overwhelmingly unlikely to collide across concurrent clients of one
   daemon; no randomness, so a replayed workload mints a reproducible
   sequence. *)
let mint_seq = Atomic.make 0

let mint_prefix =
  lazy
    (Printf.sprintf "c-%04x%04x"
       (Unix.getpid () land 0xffff)
       (int_of_float (Unix.gettimeofday () *. 1000.0) land 0xffff))

(** A fresh client-minted request id. *)
let mint_request_id () =
  Printf.sprintf "%s-%d" (Lazy.force mint_prefix)
    (Atomic.fetch_and_add mint_seq 1)

(* A submission with a request id: the caller's own if present, else a
   freshly minted one. *)
let with_request_id (s : Protocol.submission) =
  match s.request_id with
  | Some _ -> s
  | None -> { s with request_id = Some (mint_request_id ()) }

(** Submit one job on an open connection, minting a request id when the
    submission carries none.  Returns the id actually sent (it names
    the job's trace in [svc-trace]) alongside the typed outcome. *)
let submit (c : conn) (s : Protocol.submission) :
    string * (int * Protocol.disposition, Protocol.error_kind) result =
  let s = with_request_id s in
  let rid = Option.get s.request_id in
  match request c (Protocol.Submit_flow s) with
  | Protocol.Submitted { job_id; disposition } -> (rid, Ok (job_id, disposition))
  | Protocol.Error e -> (rid, Error e)
  | _ -> fail "unexpected response to submit_flow"

(** Submit a whole batch in one frame (every item without a request id
    gets a client-minted one).  Per-item results in submission order. *)
let submit_batch (c : conn) (subs : Protocol.submission list) :
    Protocol.batch_submit_item list =
  let subs = List.map with_request_id subs in
  match request c (Protocol.Submit_batch subs) with
  | Protocol.Submitted_batch items -> items
  | Protocol.Error e -> raise (Protocol_failure e)
  | _ -> fail "unexpected response to submit_batch"

(** Fetch many results in one frame. *)
let fetch_batch (c : conn) (ids : int list) : Protocol.batch_fetch_item list =
  match request c (Protocol.Fetch_batch ids) with
  | Protocol.Results_batch items -> items
  | Protocol.Error e -> raise (Protocol_failure e)
  | _ -> fail "unexpected response to fetch_batch"

(** Retained request traces from the daemon (protocol v3): the sampled
    ring, or the slow-exemplar ring with [~slow:true]. *)
let traces ?timeout_ms ?(slow = false) addr : Json.t =
  match rpc ?timeout_ms addr (Protocol.Svc_trace { slow }) with
  | Protocol.Traces t -> t
  | Protocol.Error e -> raise (Protocol_failure e)
  | _ -> fail "unexpected response to svc_trace"

(** Poll [job_id] until it is done (returning its result), failed, or
    [timeout_s] elapses. *)
let wait_result ?(poll_interval_s = 0.05) ?(timeout_s = 300.0) addr job_id :
    (Protocol.job_view * Protocol.job_result, string) result =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    match rpc addr (Protocol.Fetch_result job_id) with
    | Protocol.Result (view, r) -> Ok (view, r)
    | Protocol.Status { state = Protocol.Failed msg; _ } ->
        Error (Printf.sprintf "job #%d failed: %s" job_id msg)
    | Protocol.Status _ ->
        if Unix.gettimeofday () > deadline then
          Error (Printf.sprintf "timed out waiting for job #%d" job_id)
        else (
          Thread.delay poll_interval_s;
          poll ())
    | Protocol.Error e -> Error (Protocol.error_message e)
    | _ -> Error "unexpected response to fetch_result"
  in
  poll ()

(** Submit and block until the result is available (fresh execution or
    store hit alike). *)
let submit_and_wait ?poll_interval_s ?timeout_s addr submission :
    ( int * [ `Fresh | `Coalesced | `Cached ] * Protocol.job_result,
      string )
    result =
  match rpc addr (Protocol.Submit_flow (with_request_id submission)) with
  | Protocol.Submitted { job_id; disposition } -> (
      match wait_result ?poll_interval_s ?timeout_s addr job_id with
      | Ok (_, r) -> Ok (job_id, disposition, r)
      | Error e -> Error e)
  | Protocol.Error e -> Error (Protocol.error_message e)
  | _ -> Error "unexpected response to submit_flow"
