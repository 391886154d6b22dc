// The one socket server both daemons run: line-oriented JSON over an
// AF_UNIX stream socket (docs/SERVICE.md is the protocol reference).
//
// One request object per line, {"cmd":VERB,...}; a connection serves any
// number of requests. The server owns everything the daemons share —
// accept, one thread per open connection, line framing, JSON parsing,
// the built-in `ping` verb, error replies, stop and socket unlink — and
// each daemon passes in only its own verbs:
//
//   {"cmd":"ping"}                    -> {"ok":true,"pong":true}
//
// The sweep daemon (ucr_servd, sweep_verbs below):
//
//   {"cmd":"submit","spec":TEXT}      -> job status (the id is "job")
//   {"cmd":"status","job":ID}         -> job status
//   {"cmd":"stream","job":ID}        -> every JSONL result row of the job
//                                       as its own line, in grid order, as
//                                       cells complete; then one final
//                                       {"ok":true,"done":true,...} status
//   {"cmd":"cancel","job":ID}        -> job status after the request
//   {"cmd":"shutdown"}               -> {"ok":true,"shutting_down":true}
//
// The coordinator (ucr_coordd --socket, coord::control_verbs):
//
//   {"cmd":"status"}                  -> fleet status (coord_status_json)
//
// Every failure — malformed JSON, unknown verb, bad spec, unknown job —
// answers {"ok":false,"error":MESSAGE} on the offending request and keeps
// the connection open. `stream`'s rows are raw JsonlSink output (no "ok"
// member), so clients can forward them byte-for-byte.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "svc/socket.hpp"

namespace ucr::svc {

class SweepService;

/// One request verb a daemon serves. `handle` answers the parsed request
/// on the connection — one line, or several for a streaming verb; a
/// ContractViolation it throws becomes the {"ok":false,...} reply.
struct Verb {
  std::string name;
  std::function<void(const json::Value& request, LineSocket& socket)> handle;
};

/// Serves `ping` plus `verbs` on an already-listening socket (listen_unix)
/// until stop_server(listen_fd), one thread per open connection: the
/// handler of a connection that has ended is joined at the next accept,
/// not held until shutdown. Then joins the handlers still serving a
/// connection, closes the fd and unlinks `socket_path`. Handlers may run
/// concurrently, so each verb must be thread-safe.
void run_server(int listen_fd, const std::string& socket_path,
                const std::vector<Verb>& verbs);

/// Makes run_server(listen_fd, ...) return: shuts the listener down, so
/// the blocked accept fails. Callable from any thread, a verb handler
/// included, until run_server has returned.
void stop_server(int listen_fd);

/// The sweep daemon's verbs over `service`; `shutdown` stops the server
/// on `listen_fd`. Jobs still queued keep running inside `service` — the
/// caller decides whether to drain (service.stop()) or cancel them.
std::vector<Verb> sweep_verbs(SweepService& service, int listen_fd);

}  // namespace ucr::svc
