#include "svc/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <future>
#include <optional>

#include "common/check.hpp"
#include "svc/service.hpp"

namespace ucr::svc {

namespace {

std::string error_json(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + json::escape(message) + "\"}";
}

std::string status_json(const JobStatus& status, bool done) {
  std::string out = done ? "{\"ok\":true,\"done\":true" : "{\"ok\":true";
  out += ",\"job\":\"" + json::escape(status.id) + "\"";
  out += ",\"state\":\"";
  out += job_state_name(status.state);
  out += "\",\"spec_hash\":\"" + status.spec_hash + "\"";
  out += ",\"total\":" + std::to_string(status.total_cells);
  out += ",\"completed\":" + std::to_string(status.completed_cells);
  out += ",\"cache_hits\":" + std::to_string(status.cache_hits);
  if (!status.error.empty()) {
    out += ",\"error\":\"" + json::escape(status.error) + "\"";
  }
  out += "}";
  return out;
}

/// noexcept: a ContractViolation is a bad request or a vanished peer;
/// anything else is a daemon bug, which must end the process loudly
/// rather than sit unread in a discarded future.
void serve_connection(LineSocket socket,
                      const std::vector<Verb>& verbs) noexcept {
  try {
    while (true) {
      const std::optional<std::string> line = socket.recv_line();
      if (!line.has_value()) return;  // client hung up
      if (line->empty()) continue;
      try {
        const json::Value request = json::parse(*line);
        const std::string& cmd = request.at("cmd").as_string();
        if (cmd == "ping") {
          socket.send_line("{\"ok\":true,\"pong\":true}");
          continue;
        }
        const Verb* verb = nullptr;
        std::string known = "ping";
        for (const Verb& candidate : verbs) {
          if (candidate.name == cmd) verb = &candidate;
          known += ", " + candidate.name;
        }
        if (verb == nullptr) {
          throw ContractViolation("unknown cmd '" + cmd + "' (" + known + ")");
        }
        verb->handle(request, socket);
      } catch (const ContractViolation& e) {
        socket.send_line(error_json(e.what()));
      }
    }
  } catch (const ContractViolation&) {
    // Transport failure mid-exchange (peer vanished): drop the connection;
    // the daemon itself stays up.
  }
}

}  // namespace

void run_server(int listen_fd, const std::string& socket_path,
                const std::vector<Verb>& verbs) {
  std::vector<std::future<void>> handlers;
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // stop_server() shut the listener down (or it broke)
    }
    handlers.push_back(std::async(std::launch::async, serve_connection,
                                  LineSocket(fd), std::cref(verbs)));
    // Erasing a ready std::async future joins its thread. A finished
    // thread keeps its stack mapped until joined, so reaping here bounds
    // the mappings by the connections still open rather than by every
    // connection ever served, which exhausts the kernel's map count.
    // Reaping after the spawn keeps a join that waits for a thread's
    // exit off the new connection's path.
    std::erase_if(handlers, [](const std::future<void>& handler) {
      return handler.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
  }
  handlers.clear();
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
}

void stop_server(int listen_fd) { ::shutdown(listen_fd, SHUT_RDWR); }

std::vector<Verb> sweep_verbs(SweepService& service, int listen_fd) {
  auto on_submit = [&service](const json::Value& request, LineSocket& socket) {
    const std::string id = service.submit(request.at("spec").as_string());
    socket.send_line(status_json(service.status(id), /*done=*/false));
  };
  auto on_status = [&service](const json::Value& request, LineSocket& socket) {
    const JobStatus job = service.status(request.at("job").as_string());
    socket.send_line(status_json(job, /*done=*/false));
  };
  auto on_stream = [&service](const json::Value& request, LineSocket& socket) {
    const std::string& job = request.at("job").as_string();
    std::size_t next_row = 0;
    while (true) {
      std::vector<std::string> rows;
      const JobStatus status = service.wait_rows(job, next_row, rows);
      for (const std::string& row : rows) socket.send_line(row);
      next_row += rows.size();
      if (job_state_terminal(status.state) &&
          next_row >= status.completed_cells) {
        socket.send_line(status_json(status, /*done=*/true));
        return;
      }
    }
  };
  auto on_cancel = [&service](const json::Value& request, LineSocket& socket) {
    const JobStatus job = service.cancel(request.at("job").as_string());
    socket.send_line(status_json(job, /*done=*/false));
  };
  auto on_shutdown = [listen_fd](const json::Value&, LineSocket& socket) {
    socket.send_line("{\"ok\":true,\"shutting_down\":true}");
    stop_server(listen_fd);
    // The server joins every open connection when it stops, so end this
    // one here rather than wait for the requester to hang up.
    ::shutdown(socket.fd(), SHUT_RD);
  };
  std::vector<Verb> verbs;
  verbs.push_back({"submit", on_submit});
  verbs.push_back({"status", on_status});
  verbs.push_back({"stream", on_stream});
  verbs.push_back({"cancel", on_cancel});
  verbs.push_back({"shutdown", on_shutdown});
  return verbs;
}

}  // namespace ucr::svc
