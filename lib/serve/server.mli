(** The daemon's socket loop: a single-threaded accept/read/dispatch/
    write reactor over a listening Unix-domain or TCP socket.

    Concurrency comes from the {!Dispatch} engine's worker pool, not
    from connection threads: the loop drains every complete request
    line currently readable across all connections, answers control
    ops immediately, and hands the accumulated run requests to
    {!Dispatch.handle} as {e one batch} — while that batch computes,
    further requests queue in the kernel buffers and form the next
    batch.  Under concurrent load the batch width approaches the
    connection count, and every request in a batch shares the pool, the
    warm cache and the deduplication of identical work.

    Per-connection ordering: responses are written in the order the
    connection's requests arrived.  A malformed or oversized line gets
    its error response in the same stream position; it never closes the
    connection or stops the daemon.  The lines the loop answers itself
    (parse errors, oversized lines, sheds) are rendered and counted by
    {!Dispatch.refuse}, so {!Dispatch.served} counts every answer.

    A round takes at most [batch_max] run requests; complete lines left
    queued past the cap are served by immediately following zero-timeout
    rounds, so a client that pipelines more than one batch's worth never
    waits on new socket traffic.

    {2 Overload protection}

    The reactor defends itself; no client behaviour can stall it:

    - {e Admission control}: a connection whose complete-line backlog
      exceeds [max_pending] gets the oldest excess answered with
      structured [overloaded] errors (carrying the queue depth) —
      deterministic shedding that costs no scheduling work and only
      penalises the flooding connection.
    - {e Slow readers}: a peer whose unread response backlog exceeds
      [max_out] bytes is closed.
    - {e Slowloris}: a peer whose line in progress fails to complete
      within [slow_timeout_s] is closed — dribbling a byte at a time
      does not reset the clock.  A fully idle peer is closed after
      [idle_timeout_s].  Both timeouts run on the {e responsive clock}:
      time the reactor itself spent blocked computing a batch is not
      held against any peer, so a long dispatch never gets a
      well-behaved connection reaped mid-line.
    - {e Half-close}: EOF drops the torn line in progress
      ({!Frame.drop_partial}); complete pipelined lines are still
      answered and flushed before the slot is reclaimed.  A mid-frame
      disconnect never disturbs other connections.
    - {e Graceful drain}: once a [shutdown] is read or [max_requests]
      answers are written, the loop stops accepting and reading,
      answers every complete line already buffered, flushes, and exits;
      [drain_grace_s] bounds how long an unresponsive peer can hold the
      exit hostage.

    Chaos: the {!Hcv_resilience.Inject} points [Conn_stall] /
    [Conn_close] / [Torn_frame] / [Slow_write] perturb the reactor's
    timing and granularity (and, for [Conn_close], simulate peer
    resets).  Torn reads and slow writes cannot change response bytes,
    which is what the soak drill's byte-identity assertion leans on. *)

type t

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket.  A stale socket file at
    that path — one no daemon accepts connections on — is unlinked
    first; raises [Failure] if a daemon is already listening there or
    the path holds something that is not a socket. *)

val listen_tcp : host:string -> port:int -> Unix.file_descr
(** Bind (with [SO_REUSEADDR]) and listen on a TCP socket. *)

val create :
  ?batch_max:int -> ?max_line:int -> ?max_requests:int
  -> ?idle_timeout_s:float -> ?slow_timeout_s:float -> ?max_pending:int
  -> ?max_out:int -> ?drain_grace_s:float -> dispatch:Dispatch.t
  -> Unix.file_descr -> t
(** [batch_max] (default 256) caps how many run requests one engine
    fan-out takes; [max_line] (default 1 MiB) is the {!Frame} line
    bound; [max_requests] (default unlimited) drains the daemon once
    {!Dispatch.served} reaches it — the self-terminating mode CI smoke
    jobs use.  Overload knobs (defaults in parentheses):
    [idle_timeout_s] (300) and [slow_timeout_s] (10) reap idle and
    slowloris peers, [max_pending] (512) bounds a connection's
    complete-line backlog before shedding, [max_out] (8 MiB) bounds its
    unread response backlog before closing, [drain_grace_s] (5) bounds
    the graceful drain.  The server registers its live gauges
    ([queue_depth], [inflight]) with the dispatcher's stats op.  The
    listening descriptor is owned by the server and closed by
    {!run}. *)

val run : ?obs:Hcv_obs.Trace.span -> t -> unit
(** Serve until shutdown (or [max_requests]), then drain.  Closes every
    descriptor before returning; the dispatcher is left running
    (callers own its lifecycle). *)
