#include "util/tcp_server.h"

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace apq {

namespace {
// Output queued from another thread behind a full socket waits at most this
// long for the loop to poll it for writability.
constexpr int kPollMs = 100;
constexpr int kBacklog = 64;
}  // namespace

TcpServer::TcpServer(InputFn on_input, CountFn on_count)
    : on_input_(std::move(on_input)), on_count_(std::move(on_count)) {}

Status TcpServer::Start(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kBacklog) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status st = Status::Internal("bind/listen on 127.0.0.1:" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    ::close(fd);
    return st;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the loop's poll at once
  thread_.join();
  ::close(listen_fd_);
  port_ = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, c] : conns_) ::close(c.fd);
    conns_.clear();
  }
  if (on_count_) on_count_(0);
}

void TcpServer::Send(uint64_t conn, const std::string& block) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.dead) return;
  Conn& c = it->second;
  c.out += block;
  // Behind earlier output the socket is full; the loop writes it later.
  if (c.out.size() == block.size()) Flush(&c);
  if (c.out.size() > kMaxOutputBytes) c.dead = true;
}

void TcpServer::Hold(uint64_t conn, int delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = conns_.find(conn);
  if (it != conns_.end()) it->second.holds += delta;
}

void TcpServer::Flush(Conn* c) {
  ssize_t n = 0;
  while (!c->out.empty() &&
         (n = ::send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL)) > 0) {
    c->out.erase(0, static_cast<size_t>(n));
  }
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) c->dead = true;
}

void TcpServer::Loop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> ids;  // ids[i] is polled at pfds[i + 1]
  size_t reported = 0;
  while (running_.load(std::memory_order_acquire)) {
    pfds.assign(1, pollfd{listen_fd_, POLLIN, 0});
    ids.clear();
    size_t open = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        Conn& c = it->second;
        if (c.dead || (c.done && c.holds <= 0 && c.out.empty())) {
          ::close(c.fd);
          it = conns_.erase(it);
          continue;
        }
        pfds.push_back(pollfd{c.fd, static_cast<short>(
            (c.done ? 0 : POLLIN) | (c.out.empty() ? 0 : POLLOUT)), 0});
        ids.push_back(it->first);
        ++it;
      }
      open = conns_.size();
    }
    if (open != reported && on_count_) on_count_(reported = open);
    if (::poll(pfds.data(), pfds.size(), kPollMs) <= 0) continue;
    if ((pfds[0].revents & POLLIN) != 0) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      std::lock_guard<std::mutex> lock(mu_);
      if (fd >= 0) conns_[next_id_++].fd = fd;
    }
    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents != 0) OnReady(ids[i - 1], pfds[i].revents);
    }
  }
}

void TcpServer::OnReady(uint64_t id, short revents) {
  Conn& c = conns_.find(id)->second;  // only this thread erases
  {
    std::lock_guard<std::mutex> lock(mu_);
    if ((revents & POLLOUT) != 0) Flush(&c);
    // A peer that hung up can take no more output.
    if (c.done && (revents & (POLLHUP | POLLERR)) != 0) c.dead = true;
  }
  if (c.done || (revents & (POLLIN | POLLHUP | POLLERR)) == 0) return;

  char buf[kMaxInputBytes];
  const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  if (n > 0) c.in.append(buf, static_cast<size_t>(n));
  const bool keep = n >= 0 && on_input_(id, &c.in, n == 0);
  c.done = n == 0 || !keep;
  std::lock_guard<std::mutex> lock(mu_);
  c.dead = c.dead || n < 0 || c.in.size() > kMaxInputBytes;
}

}  // namespace apq
