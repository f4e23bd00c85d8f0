// User-level socket API over the monolithic kernel.
//
// UdpSocket / TcpSocket model BSD sockets: every operation crosses the
// user/kernel boundary with the costs the paper attributes to DIGITAL UNIX
// ("each packet sent involves a trap and a copy-in as the data moves across
// the user/kernel boundary"). Receive callbacks fire only after the process
// has been scheduled and the data copied out.
#ifndef PLEXUS_OS_SOCKETS_H_
#define PLEXUS_OS_SOCKETS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "os/socket_host.h"
#include "proto/tcp.h"
#include "proto/tcp_stream.h"
#include "proto/udp.h"

namespace os {

class UdpSocket {
 public:
  // Datagram delivered to the user process (after copyout).
  using DatagramCallback =
      std::function<void(std::vector<std::byte> data, const proto::UdpDatagram& info)>;

  // Binds the port at construction; throws std::runtime_error if in use.
  UdpSocket(SocketHost& os, std::uint16_t port);
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  void SetOnDatagram(DatagramCallback cb) { *on_datagram_ = std::move(cb); }
  void set_checksum_enabled(bool v) { checksum_ = v; }

  // sendto(2): trap + copyin + protocol path. The datagram goes out even if
  // the process drops the socket before the syscall runs.
  void SendTo(std::span<const std::byte> data, net::Ipv4Address dst, std::uint16_t dst_port);
  void SendTo(std::string_view s, net::Ipv4Address dst, std::uint16_t dst_port) {
    SendTo({reinterpret_cast<const std::byte*>(s.data()), s.size()}, dst, dst_port);
  }

  std::uint16_t port() const { return port_; }

 private:
  SocketHost& os_;
  std::uint16_t port_;
  bool checksum_ = true;
  // Shared with queued wakeups, which hold it weakly: a datagram whose
  // wakeup runs after the socket is gone is charged but delivered to
  // nobody.
  std::shared_ptr<DatagramCallback> on_datagram_;
};

// A connected TCP socket, exposed as ByteStream so HTTP and the examples
// run identically on both systems. Its two boundary crossings are the
// baseline's: a call traps in and copies its bytes in (write(2),
// close(2)); received bytes, EOF and errors wake the process and are
// copied out. A call issued before the process dropped the socket still
// completes; a wakeup for a dropped socket is still charged but delivers
// nothing.
class TcpSocket : public proto::TcpStream, public std::enable_shared_from_this<TcpSocket> {
 public:
  // Active open. The returned socket is owned by the caller.
  static std::shared_ptr<TcpSocket> Connect(SocketHost& os, net::Ipv4Address remote_ip,
                                            std::uint16_t remote_port,
                                            std::uint16_t local_port = 0);

 private:
  friend class TcpListener;
  TcpSocket(SocketHost& os, proto::TcpEndpoints ep);

  void ToKernel(std::span<const std::byte> bytes, Crossing work) override;
  void ToApp(std::span<const std::byte> bytes, Crossing work) override;

  SocketHost& os_;

  inline static std::uint16_t next_ephemeral_port_ = 40000;
};

class TcpListener {
 public:
  using Acceptor = std::function<void(std::shared_ptr<TcpSocket>)>;

  // listen(2) + accept(2) loop.
  TcpListener(SocketHost& os, std::uint16_t port, Acceptor acceptor);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

 private:
  SocketHost& os_;
  std::uint16_t port_;
  // Held weakly by queued accept wakeups, like UdpSocket's callback.
  std::shared_ptr<Acceptor> acceptor_;
  std::vector<std::shared_ptr<TcpSocket>> accepted_;
};

}  // namespace os

#endif  // PLEXUS_OS_SOCKETS_H_
