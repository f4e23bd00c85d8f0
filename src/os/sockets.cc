#include "os/sockets.h"

#include <stdexcept>

namespace os {

// --- UdpSocket ------------------------------------------------------------------

UdpSocket::UdpSocket(SocketHost& os, std::uint16_t port)
    : os_(os), port_(port), on_datagram_(std::make_shared<DatagramCallback>()) {
  const bool ok = os_.udp_layer().Bind(port, [this](net::MbufPtr payload,
                                                    const proto::UdpDatagram& info) {
    // Kernel side: copy into the socket buffer, then wake the process.
    auto bytes = payload->Linearize();
    const std::size_t len = bytes.size();  // before the move (eval order)
    os_.DeliverToUser(len, [cb = std::weak_ptr(on_datagram_), bytes = std::move(bytes),
                            info]() mutable {
      if (auto f = cb.lock(); f && *f) (*f)(std::move(bytes), info);
    });
  });
  if (!ok) throw std::runtime_error("UDP port already bound: " + std::to_string(port));
}

UdpSocket::~UdpSocket() { os_.udp_layer().Unbind(port_); }

void UdpSocket::SendTo(std::span<const std::byte> data, net::Ipv4Address dst,
                       std::uint16_t dst_port) {
  std::vector<std::byte> copy(data.begin(), data.end());
  const std::size_t len = copy.size();  // before the move: argument evaluation
                                        // order is unspecified
  // The closure carries what the call needs by value, never the socket.
  os_.Syscall(len, [&os = os_, port = port_, checksum = checksum_, copy = std::move(copy), dst,
                    dst_port] {
    auto m = net::PoolFromBytes(os.host().mbuf_pool(), copy);
    if (m == nullptr) return;  // pool dry: ENOBUFS — the datagram is dropped
    os.udp_layer().Output(std::move(m), net::Ipv4Address::Any(), port, dst, dst_port, checksum);
  });
}

// --- TcpSocket ------------------------------------------------------------------

TcpSocket::TcpSocket(SocketHost& os, proto::TcpEndpoints ep)
    : TcpStream(os, os.tcp_demux(), os.tcp_config(), ep), os_(os) {}

std::shared_ptr<TcpSocket> TcpSocket::Connect(SocketHost& os, net::Ipv4Address remote_ip,
                                              std::uint16_t remote_port,
                                              std::uint16_t local_port) {
  if (local_port == 0) local_port = next_ephemeral_port_++;
  proto::TcpEndpoints ep{os.ip_address(), local_port, remote_ip, remote_port};
  auto sock = std::shared_ptr<TcpSocket>(new TcpSocket(os, ep));
  sock->Register();
  // connect(2) is a syscall.
  os.Syscall(0, [sock] { sock->connection().Connect(); });
  return sock;
}

void TcpSocket::ToKernel(std::span<const std::byte> bytes, Crossing work) {
  // write(2) / close(2): trap + copyin. The syscall holds the socket, so it
  // completes even if the process drops the socket before it runs.
  std::vector<std::byte> copy(bytes.begin(), bytes.end());
  const std::size_t len = copy.size();  // before the move (eval order)
  os_.Syscall(len, [self = shared_from_this(), copy = std::move(copy), work = std::move(work)] {
    work(copy);
  });
}

void TcpSocket::ToApp(std::span<const std::byte> bytes, Crossing work) {
  // Kernel receive path done; wake the process and copy out. The wakeup
  // holds the socket only weakly: if the process dropped it meanwhile, the
  // wakeup is still charged but delivers nothing.
  std::vector<std::byte> copy(bytes.begin(), bytes.end());
  const std::size_t len = copy.size();  // before the move (eval order)
  os_.DeliverToUser(len, [weak = weak_from_this(), copy = std::move(copy),
                          work = std::move(work)] {
    if (auto self = weak.lock()) work(copy);
  });
}

// --- TcpListener ------------------------------------------------------------------

TcpListener::TcpListener(SocketHost& os, std::uint16_t port, Acceptor acceptor)
    : os_(os), port_(port), acceptor_(std::make_shared<Acceptor>(std::move(acceptor))) {
  os_.tcp_demux().Listen(port, [this](const proto::TcpEndpoints& ep) -> proto::TcpConnection* {
    auto sock = std::shared_ptr<TcpSocket>(new TcpSocket(os_, ep));
    accepted_.push_back(sock);
    sock->SetOnEstablished([&os = os_, acceptor = std::weak_ptr(acceptor_),
                            weak = std::weak_ptr(sock)] {
      // accept(2) returns in the user process. The wakeup holds neither the
      // listener nor the socket: accepted_ keeps the socket while the
      // listener lives.
      os.DeliverToUser(0, [acceptor, weak] {
        auto a = acceptor.lock();
        auto s = weak.lock();
        if (a && *a && s) (*a)(s);
      });
    });
    sock->Register();
    sock->connection().Listen();
    return &sock->connection();
  });
}

TcpListener::~TcpListener() { os_.tcp_demux().StopListening(port_); }

}  // namespace os
