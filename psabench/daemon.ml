(* A [psaflow serve] child process and the closed-loop clients that
   drive it through [Flow_service.Client]. *)

module Protocol = Flow_service.Protocol
module Client = Flow_service.Client
module Json = Flow_service.Json

(* One scheduler worker and a sequential flow pool: with the clients'
   threads sharing one domain, the benchmark keeps two busy domains,
   within a 2-core machine.  The defaults (2 workers, each fanning out
   a 2-domain pool) would run 4 domains on 2 cores. *)
let env_pins = [ ("PSAFLOW_SERVICE_WORKERS", "1"); ("PSAFLOW_JOBS", "1"); ("PSAFLOW_LOG", "error") ]
let clients = 2

(* Fixed poll interval: the default 50 ms of [Client.wait_result]
   would quantize every latency. *)
let poll_interval_s = 0.0005

type t = { pid : int; addr : Protocol.addr }

let live : t list ref = ref []

let stop_quietly d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter stop_quietly !live)

let counter = ref 0

(* Spawn the daemon with a socket under [dir] (relative, so the path
   stays short) and wait until it answers. *)
let spawn ~exe ~dir =
  incr counter;
  let path = Printf.sprintf "%s/d%d-%d.sock" dir (Unix.getpid ()) !counter in
  let log =
    Unix.openfile (Printf.sprintf "%s/daemon-%d.log" dir !counter)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let env =
    Array.append
      (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env_pins))
      (Array.of_list
         (List.filter
            (fun kv -> not (List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") kv) env_pins))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env exe [| exe; "serve"; "--socket"; path |] env Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; addr = Protocol.Unix_path path } in
  live := d :: !live;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec ready () =
    match Client.rpc d.addr Protocol.Metrics with
    | Protocol.Metrics_data _ -> ()
    | _ -> failwith "daemon answered metrics with something else"
    | exception (Client.Client_error _ | Unix.Unix_error _) ->
        if Unix.gettimeofday () > deadline then failwith "daemon did not come up";
        Thread.delay 0.005;
        ready ()
  in
  ready ();
  d

let shutdown d =
  (try ignore (Client.rpc d.addr Protocol.Shutdown) with _ -> ());
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* ------------------------------------------------------------------ *)
(* One operation                                                       *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let run_op (c : Client.conn) (op : Ops.op) ~rid : Flows.sample =
  let sub = { op.sub with request_id = Some rid } in
  Spans.with_span ~rid ~cat:"op" (Ops.kind_name op.kind) @@ fun () ->
  let t0 = now () in
  let _, submitted =
    Spans.with_span ~rid ~cat:"service.submit" "submit" (fun () -> Client.submit c sub)
  in
  let elapsed () = 1000.0 *. (now () -. t0) in
  match submitted with
  | Error _ -> Flows.sample op ~ms:(elapsed ()) Flows.Rejected
  | Ok (job_id, disposition) ->
      let rec poll n =
        let resp =
          Spans.with_span ~rid ~cat:"service.fetch" "fetch" (fun () ->
              Client.request c (Protocol.Fetch_result job_id))
        in
        let ms = elapsed () in
        (* digests are taken after the clock stops *)
        let finish outcome (view : Protocol.job_view) =
          { (Flows.sample op ~ms (outcome ())) with
            polls = n;
            exec_ms = Option.map (fun s -> 1000.0 *. s) view.wall_s;
            fresh = disposition = `Fresh }
        in
        match resp with
        | Protocol.Result (view, jr) -> finish (fun () -> Flows.Done (Flows.digests jr)) view
        | Protocol.Status ({ state = Protocol.Failed _; _ } as view) ->
            finish (fun () -> Flows.Failed) view
        | Protocol.Status _ ->
            Thread.delay poll_interval_s;
            poll (n + 1)
        | _ -> { (Flows.sample op ~ms Flows.Failed) with polls = n }
      in
      poll 1

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Client threads that died: a daemon that stops answering must fail
   the run, not hang it. *)
let client_errors = Atomic.make 0

(* Each client sends its share of round after round from [first], the
   next request only once the previous one has completed, and stops
   before the first op for which [until round] holds (a round count).
   Returns every sample, per client in order. *)

let drive d ~(share : round:int -> client:int -> Ops.op list) ~first ~(until : int -> bool) :
    Flows.sample list =
  let results = Array.make clients [] in
  let worker i =
    let rec rounds c r =
      let rec ops = function
        | [] -> rounds c (r + 1)
        | (op : Ops.op) :: rest ->
            if not (until r) then begin
              let rid = Printf.sprintf "c%d.r%d.%s.%s" i r (Ops.kind_name op.kind) op.nonce in
              results.(i) <- run_op c op ~rid :: results.(i);
              ops rest
            end
      in
      if not (until r) then ops (share ~round:r ~client:i)
    in
    try Client.with_conn ~timeout_ms:60_000 d.addr (fun c -> rounds c first)
    with e ->
      Atomic.incr client_errors;
      Printf.eprintf "psabench: client %d: %s\n%!" i (Printexc.to_string e)
  in
  let threads = List.init clients (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  List.concat_map List.rev (Array.to_list results)

(* Engine and service counters of the daemon, flattened to numbers:
   counters as they are, histograms as their count and sum. *)
let counters d : (string * float) list =
  let j =
    match Client.rpc d.addr Protocol.Metrics with
    | Protocol.Metrics_data j -> j
    | _ -> failwith "unexpected response to metrics"
  in
  let flat prefix = function
    | Json.Obj fields ->
        List.concat_map
          (fun (k, v) ->
            match v with
            | Json.Int n -> [ (prefix ^ k, float_of_int n) ]
            | Json.Obj _ as h -> (
                match (Json.member "count" h, Json.member "sum" h) with
                | Some c, Some s ->
                    [ (prefix ^ k ^ ".count", Option.value ~default:0.0 (Json.to_float_opt c));
                      (prefix ^ k ^ ".sum", Option.value ~default:0.0 (Json.to_float_opt s)) ]
                | Some c, None -> [ (prefix ^ k ^ ".count", Option.value ~default:0.0 (Json.to_float_opt c)) ]
                | _ -> [])
            | _ -> [])
          fields
    | _ -> []
  in
  flat "" j @ (match Json.member "engine" j with Some e -> flat "engine." e | None -> [])
