// Ablation: the video client's integrated layer processing and the "better
// video hardware" prediction.
//
// Section 5.1: "The client viewer is a good candidate for the integrated
// layer processing optimizations suggested by Clark [CT90]" — but in 1996
// "the performance of the video client is limited by the write bandwidth of
// the framebuffer hardware rather than overhead incurred by the operating
// system ... We expect that with better video hardware, such as the DEC
// J300 device, the dominant performance bottleneck will be the protocol
// processing rather than the application processing."
//
// This bench measures client CPU per displayed frame across
// {two-pass, ILP} x {SFB framebuffer, J300-class framebuffer}, showing that
// ILP only pays off once the framebuffer stops dominating.
#include <cstdio>

#include "app/video.h"
#include "bench/bench_common.h"
#include "drivers/medium.h"
#include "tests/net_harness.h"

namespace {

// CPU us per displayed frame on the client.
double ClientCpuPerFrameUs(bool ilp, sim::Duration fb_per_byte) {
  auto costs = sim::CostModel::Default1996();
  costs.fb_write_per_byte = fb_per_byte;
  harness::Lan lan(drivers::DeviceProfile::DecT3());
  sim::Simulator& sim = lan.sim;
  const auto mode = core::HandlerMode::kInterrupt;
  auto& server = lan.AddPlexus(1, "server", 1, mode, costs);
  auto& client = lan.AddPlexus(2, "client", 1, mode, costs);

  app::VideoConfig config;
  app::PlexusVideoServer video(server, config);
  app::PlexusVideoClient viewer(client, config.base_client_port, ilp);
  video.AddClient({net::Ipv4Address(10, 0, 0, 2), config.base_client_port});
  video.Start();
  sim.RunFor(sim::Duration::Millis(200));
  const auto before = client.host().cpu().busy_total();
  const auto frames_before = viewer.frames_displayed();
  sim.RunFor(sim::Duration::Seconds(2));
  video.Stop();
  const double frames = static_cast<double>(viewer.frames_displayed() - frames_before);
  if (frames <= 0) return -1;
  return (client.host().cpu().busy_total() - before).us() / frames;
}

}  // namespace

int main() {
  const auto sfb = sim::Duration::Nanos(20);   // 1996 SFB framebuffer
  const auto j300 = sim::Duration::Nanos(3);   // "better video hardware"

  std::printf("Ablation: integrated layer processing on the video client\n");
  std::printf("(client CPU per 12.5KB displayed frame, T3 network)\n\n");
  std::printf("%-28s %14s %14s %10s\n", "framebuffer", "two-pass (us)", "ILP (us)", "saved");

  const double sfb_two = ClientCpuPerFrameUs(false, sfb);
  const double sfb_ilp = ClientCpuPerFrameUs(true, sfb);
  const double j300_two = ClientCpuPerFrameUs(false, j300);
  const double j300_ilp = ClientCpuPerFrameUs(true, j300);

  std::printf("%-28s %14.1f %14.1f %9.1f%%\n", "SFB (1996, 20ns/B)", sfb_two, sfb_ilp,
              (sfb_two - sfb_ilp) / sfb_two * 100);
  std::printf("%-28s %14.1f %14.1f %9.1f%%\n", "J300-class (3ns/B)", j300_two, j300_ilp,
              (j300_two - j300_ilp) / j300_two * 100);

  std::printf("\nshape: ILP savings grow once the framebuffer stops dominating: %s\n",
              ((j300_two - j300_ilp) / j300_two > (sfb_two - sfb_ilp) / sfb_two) ? "HOLDS"
                                                                                 : "VIOLATED");
  std::printf("(the paper's prediction about the DEC J300 — protocol processing becomes\n"
              " the bottleneck when display hardware improves)\n");
  return 0;
}
