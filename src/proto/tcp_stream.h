// TcpStream: a TCP connection exposed as a ByteStream, so HTTP and the
// examples run unchanged on Plexus and on the DIGITAL UNIX baseline.
//
// Everything between the connection and the application is the same on
// both systems and lives here: the app callbacks, bytes that arrive before
// SetOnData, the write backlog waiting for send-buffer space, close after
// that backlog drains, and the connection's demux registration. A system
// supplies only the two boundary crossings: ToKernel, where an
// application call enters the stack, and ToApp, where received bytes, EOF
// or an error reach the application. Plexus runs both inline; the baseline
// traps and copies in, and wakes the process and copies out.
#ifndef PLEXUS_PROTO_TCP_STREAM_H_
#define PLEXUS_PROTO_TCP_STREAM_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "proto/host_stack.h"
#include "proto/http.h"
#include "proto/tcp.h"
#include "proto/tcp_demux.h"

namespace proto {

class TcpStream : public ByteStream {
 public:
  ~TcpStream() override;

  std::size_t Write(std::span<const std::byte> data) final;
  void SetOnData(std::function<void(std::span<const std::byte>)> cb) final;
  void SetOnClose(std::function<void()> cb) final { on_close_ = std::move(cb); }
  void SetOnError(std::function<void(StreamError)> cb) final { on_error_ = std::move(cb); }
  void CloseStream() final;

  void SetOnEstablished(std::function<void()> cb) { on_established_ = std::move(cb); }
  TcpConnection& connection() { return *conn_; }
  // getsockopt(TCP_INFO) equivalent: one coherent snapshot of the
  // connection's congestion/RTT/loss state.
  TcpInfo Info() const { return conn_->info(); }
  // Arms the per-flow cwnd/srtt/in-flight ring sampler on the connection.
  void EnableTelemetry(sim::Duration min_interval, std::size_t capacity) {
    conn_->EnableSampling(min_interval, capacity);
  }

 protected:
  // Work on the far side of a crossing, handed the bytes that crossed.
  using Crossing = std::function<void(std::span<const std::byte>)>;

  // Segments leave through `stack`'s IP layer; the connection is entered
  // in `demux` by Register().
  TcpStream(HostStack& stack, TcpDemux& demux, const TcpConfig& config, TcpEndpoints ep);

  // Runs `work` where an application call lands in the stack, handing it
  // the call's `bytes` (empty for a call that carries none).
  virtual void ToKernel(std::span<const std::byte> bytes, Crossing work) = 0;
  // Runs `work` where received `bytes` (empty for EOF or an error) reach
  // the application.
  virtual void ToApp(std::span<const std::byte> bytes, Crossing work) = 0;

  // Enters the connection in the demux; it leaves again when the
  // connection closes or the stream dies.
  void Register();
  bool registered() const { return registered_; }
  // Host crash: the connection vanishes power-fail style (no segment, no
  // callback) and the demux, which dies with the host, is left alone. The
  // stream object survives only because the application may still hold it.
  void Detach();

 private:
  // Hands what the send buffer has room for to the connection.
  void FlushPending();
  void Receive(std::span<const std::byte> bytes);

  std::unique_ptr<TcpConnection> conn_;
  TcpDemux& demux_;
  std::function<void(std::span<const std::byte>)> on_data_;
  std::function<void()> on_close_;
  std::function<void(StreamError)> on_error_;
  std::function<void()> on_established_;
  std::vector<std::byte> pre_data_;  // data arriving before SetOnData
  std::deque<std::byte> pending_;    // writes awaiting TCP buffer space
  bool registered_ = false;
  bool close_after_flush_ = false;
  bool close_delivered_ = false;
};

}  // namespace proto

#endif  // PLEXUS_PROTO_TCP_STREAM_H_
