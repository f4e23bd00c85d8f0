#include "proto/tcp_stream.h"

#include <algorithm>
#include <utility>

namespace proto {

TcpStream::TcpStream(HostStack& stack, TcpDemux& demux, const TcpConfig& config,
                     TcpEndpoints ep)
    : demux_(demux) {
  TcpConnection::Callbacks cbs;
  cbs.send_segment = [&stack](net::MbufPtr segment, net::Ipv4Address src,
                              net::Ipv4Address dst) {
    stack.ip_layer().Output(std::move(segment), src, dst, net::ipproto::kTcp);
  };
  cbs.on_established = [this] {
    if (on_established_) on_established_();
  };
  cbs.on_data = [this](std::span<const std::byte> data) {
    ToApp(data, [this](std::span<const std::byte> bytes) { Receive(bytes); });
  };
  cbs.on_send_ready = [this] { FlushPending(); };
  cbs.on_remote_close = [this] {
    // EOF from the peer: stream-level close (HTTP-style close-delimited
    // bodies rely on this). It crosses like data, so it cannot overtake
    // bytes still on their way to the application.
    if (close_delivered_) return;
    close_delivered_ = true;
    ToApp({}, [this](std::span<const std::byte>) {
      if (on_close_) on_close_();
    });
  };
  cbs.on_closed = [this] {
    if (registered_) {
      demux_.Unregister(conn_->endpoints());
      registered_ = false;
    }
    if (!close_delivered_) {
      close_delivered_ = true;
      if (on_close_) on_close_();
    }
  };
  cbs.on_error = [this](TcpError err) {
    // ECONNRESET / ETIMEDOUT cross like data, so an error cannot overtake
    // bytes already received.
    const StreamError e =
        err == TcpError::kTimedOut ? StreamError::kTimedOut : StreamError::kReset;
    ToApp({}, [this, e](std::span<const std::byte>) {
      if (on_error_) on_error_(e);
    });
  };
  conn_ = std::make_unique<TcpConnection>(stack.host(), config, ep, std::move(cbs));
}

TcpStream::~TcpStream() {
  if (registered_) demux_.Unregister(conn_->endpoints());
}

void TcpStream::Register() {
  demux_.Register(conn_.get());
  registered_ = true;
}

void TcpStream::Detach() {
  registered_ = false;
  conn_->Vanish();
}

std::size_t TcpStream::Write(std::span<const std::byte> data) {
  ToKernel(data, [this](std::span<const std::byte> bytes) {
    pending_.insert(pending_.end(), bytes.begin(), bytes.end());
    FlushPending();
  });
  return data.size();
}

void TcpStream::FlushPending() {
  while (!pending_.empty()) {
    std::vector<std::byte> chunk(
        pending_.begin(),
        pending_.begin() + static_cast<std::ptrdiff_t>(
                               std::min<std::size_t>(pending_.size(), 16 * 1024)));
    const std::size_t accepted = conn_->Send(chunk);
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(accepted));
    if (accepted < chunk.size()) break;  // send buffer full
  }
  if (close_after_flush_ && pending_.empty()) {
    close_after_flush_ = false;
    conn_->Close();
  }
}

void TcpStream::CloseStream() {
  ToKernel({}, [this](std::span<const std::byte>) {
    if (pending_.empty()) {
      conn_->Close();
    } else {
      close_after_flush_ = true;  // FIN after the backlog drains
    }
  });
}

void TcpStream::Receive(std::span<const std::byte> bytes) {
  if (on_data_) {
    on_data_(bytes);
  } else {
    pre_data_.insert(pre_data_.end(), bytes.begin(), bytes.end());
  }
}

void TcpStream::SetOnData(std::function<void(std::span<const std::byte>)> cb) {
  on_data_ = std::move(cb);
  if (on_data_ && !pre_data_.empty()) {
    std::vector<std::byte> stashed;
    stashed.swap(pre_data_);
    on_data_(stashed);
  }
}

}  // namespace proto
