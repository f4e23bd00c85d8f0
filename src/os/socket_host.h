// The monolithic baseline: a "DIGITAL UNIX"-structured kernel.
//
// Identical protocol modules and device drivers as Plexus — the same
// proto::HostStack chassis underneath (the paper's controlled comparison) —
// but wired as a conventional kernel:
//   * demultiplexing is hard-wired kernel code (no events, no extensions),
//   * applications live in user processes behind a syscall boundary:
//     each send traps and copies data into the kernel; each receive charges
//     socket demux, then a scheduler wakeup, a context switch, and a copyout
//     before application code sees the data ("In the worst case, the
//     receive side must schedule the user process, copy the packet to
//     user space, and context-switch").
#ifndef PLEXUS_OS_SOCKET_HOST_H_
#define PLEXUS_OS_SOCKET_HOST_H_

#include <cstdint>
#include <functional>
#include <string>

#include "proto/host_stack.h"
#include "proto/tcp.h"
#include "proto/tcp_demux.h"

namespace os {

class SocketHost : public proto::HostStack {
 public:
  SocketHost(sim::Simulator& s, std::string name, sim::CostModel costs,
             drivers::DeviceProfile profile, NetConfig net_config, std::uint64_t seed = 1);
  // Queued syscalls hold their sockets (a call the process issued
  // completes); they are dropped while the demux those sockets leave on
  // destruction still exists.
  ~SocketHost() { host_.cpu().Reset(); }

  proto::TcpDemux& tcp_demux() { return tcp_demux_; }
  proto::TcpConfig& tcp_config() { return tcp_config_; }

  // Runs user-level application code (a process getting the CPU).
  void RunUser(std::function<void()> fn) {
    host_.Submit(sim::Priority::kThread, std::move(fn));
  }

  // Executes `kernel_work` as a system call made by a user process:
  // trap in, copyin `copy_bytes`, socket-layer bookkeeping, work, trap out.
  void Syscall(std::size_t copy_bytes, std::function<void()> kernel_work);

  // Delivers `bytes` of received data to a user process: socket demux is
  // charged in the current (kernel/interrupt) task; the app callback runs
  // in a later user task after wakeup, context switch, and copyout.
  void DeliverToUser(std::size_t bytes, std::function<void()> app_callback);

 private:
  // "os.*" counters: the baseline's trap/copy/schedule activity (the very
  // costs the paper's Section 4 breakdown charges against this structure).
  sim::Counter& syscalls_ = host_.metrics().counter("os.syscalls");
  sim::Counter& copyin_bytes_ = host_.metrics().counter("os.copyin_bytes");
  sim::Counter& copyout_bytes_ = host_.metrics().counter("os.copyout_bytes");
  sim::Counter& context_switches_ = host_.metrics().counter("os.context_switches");
  sim::Counter& sched_wakeups_ = host_.metrics().counter("os.sched_wakeups");
  proto::TcpDemux tcp_demux_;
  proto::TcpConfig tcp_config_;
};

}  // namespace os

#endif  // PLEXUS_OS_SOCKET_HOST_H_
