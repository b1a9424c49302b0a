#include "net/telemetry_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "obs/telemetry.hpp"

namespace flecc::net {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

std::string render_response(const HttpResponse& r) {
  std::ostringstream out;
  out << "HTTP/1.1 " << r.status << " " << status_text(r.status) << "\r\n"
      << "Content-Type: " << r.content_type << "\r\n"
      << "Content-Length: " << r.body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << r.body;
  return out.str();
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until the request head terminator (or a size cap — the
/// endpoints take no bodies, so anything longer is garbage).
bool read_head(int fd, std::string* head) {
  char buf[1024];
  while (head->size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    head->append(buf, static_cast<std::size_t>(n));
    if (head->find("\r\n\r\n") != std::string::npos ||
        head->find("\n\n") != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

TelemetryServer::TelemetryServer(std::uint16_t port, const std::string& host) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = fd;
}

TelemetryServer::~TelemetryServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TelemetryServer::route(const std::string& path, Handler handler) {
  routes_.emplace_back(path, std::move(handler));
}

bool TelemetryServer::handle_connection(int fd) {
  std::string head;
  if (!read_head(fd, &head)) {
    ::close(fd);
    return false;
  }
  // Request line: METHOD SP PATH SP VERSION.
  std::istringstream line(head.substr(0, head.find('\n')));
  std::string method, target;
  line >> method >> target;
  // Ignore any query string — the endpoints take no parameters.
  const std::size_t q = target.find('?');
  if (q != std::string::npos) target.resize(q);

  HttpResponse resp;
  if (method != "GET") {
    resp.status = 405;
    resp.body = "only GET is supported\n";
  } else {
    resp.status = 404;
    resp.body = "no such endpoint: " + target + "\n";
    for (const auto& [path, handler] : routes_) {
      if (path == target) {
        resp = handler();
        break;
      }
    }
  }
  // Count before replying: a client that has read the response must
  // already see the request in requests_served().
  ++requests_;
  send_all(fd, render_response(resp));
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  return true;
}

bool TelemetryServer::poll_once(int timeout_ms) {
  if (listen_fd_ < 0) return false;
  pollfd pfd{listen_fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return false;
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return false;
  return handle_connection(fd);
}

void TelemetryServer::serve_background() {
  if (listen_fd_ < 0 || thread_.joinable()) return;
  stop_.store(false);
  thread_ = std::thread([this] {
    while (!stop_.load()) poll_once(/*timeout_ms=*/50);
  });
}

void TelemetryServer::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void serve_telemetry(obs::TelemetryHub& hub, TelemetryServer& server) {
  obs::TelemetryHub* h = &hub;
  server.route("/metrics", [h] {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = h->render_metrics();
    h->note_http_request(true);
    return r;
  });
  server.route("/healthz", [h] {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = h->render_healthz();
    h->note_http_request(true);
    return r;
  });
  server.route("/varz", [h] {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = h->render_varz();
    h->note_http_request(true);
    return r;
  });
  server.route("/", [h] {
    HttpResponse r;
    r.content_type = "text/html";
    r.body =
        "<html><body><h1>flecc telemetry</h1><ul>"
        "<li><a href=\"/metrics\">/metrics</a> Prometheus exposition</li>"
        "<li><a href=\"/healthz\">/healthz</a> health rollup</li>"
        "<li><a href=\"/varz\">/varz</a> windowed series (JSON)</li>"
        "</ul></body></html>\n";
    h->note_http_request(true);
    return r;
  });
}

std::optional<std::string> http_get(const std::string& host,
                                    std::uint16_t port,
                                    const std::string& path, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;

  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }

  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, req)) {
    ::close(fd);
    return std::nullopt;
  }

  std::string resp;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  if (resp.rfind("HTTP/1.1 200", 0) != 0 && resp.rfind("HTTP/1.0 200", 0) != 0) {
    return std::nullopt;
  }
  const std::size_t body = resp.find("\r\n\r\n");
  if (body == std::string::npos) return std::nullopt;
  return resp.substr(body + 4);
}

}  // namespace flecc::net
