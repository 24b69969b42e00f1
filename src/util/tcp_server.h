// The one socket loop under both servers (the introspection endpoint and
// the query service), and the only code under src/ that touches sockets.
//
// A TcpServer binds 127.0.0.1 and runs one thread that polls the listener
// and every connection, handing each connection's unread input to its
// owner's callback on that thread. No thread ever waits on a peer: Send
// queues a whole block and writes what the socket takes now, and the loop
// writes the rest once the socket is writable. A connection closes once its
// output is sent after its reading ended (EOF, or the callback returned
// false) with no Hold open; at once when a send fails, its unsent output
// passes kMaxOutputBytes or its unconsumed input passes kMaxInputBytes; and
// at Stop.
#ifndef APQ_UTIL_TCP_SERVER_H_
#define APQ_UTIL_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"

namespace apq {

class TcpServer {
 public:
  static constexpr size_t kMaxInputBytes = 4096;
  static constexpr size_t kMaxOutputBytes = 4u << 20;

  /// Runs on the loop thread with all of `conn`'s unconsumed input, and
  /// erases what it consumes. `eof`: the peer has closed its side. Returning
  /// false stops reading; the connection closes once its output is sent.
  using InputFn =
      std::function<bool(uint64_t conn, std::string* in, bool eof)>;
  /// Runs after each accept and each close with the open connection count.
  using CountFn = std::function<void(size_t open)>;

  explicit TcpServer(InputFn on_input, CountFn on_count = nullptr);
  ~TcpServer() { Stop(); }
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the loop thread.
  /// Call when not running; on failure nothing runs.
  Status Start(int port);
  /// Joins the loop and closes every socket. Safe when not running.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port; 0 when not running.
  int port() const { return port_; }

  /// Send and Hold may be called from any thread.
  void Send(uint64_t conn, const std::string& block);
  /// Takes (+1) or releases (-1) a hold: a held connection stays open after
  /// its peer closes its side, so a half-closed client gets what it is owed.
  void Hold(uint64_t conn, int delta);

 private:
  struct Conn {
    int fd = -1;
    std::string in;     // loop thread only, like done
    bool done = false;  // reading has ended
    std::string out;    // unsent output; guarded by mu_ from here on
    int holds = 0;
    bool dead = false;  // close at the next loop pass, sent or not
  };

  void Loop();
  void OnReady(uint64_t id, short revents);
  void Flush(Conn* c);  // mu_ held

  const InputFn on_input_;
  const CountFn on_count_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex mu_;
  std::map<uint64_t, Conn> conns_;  // only the loop thread inserts or erases
  uint64_t next_id_ = 1;
  std::thread thread_;
};

}  // namespace apq

#endif  // APQ_UTIL_TCP_SERVER_H_
