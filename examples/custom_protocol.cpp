// Application-specific protocols, end to end (the paper's Section 1.1
// motivation): an audio/video application that (a) disables the UDP
// checksum — "applications where data integrity is optional ... might use
// an implementation of UDP for which the checksum has been disabled" — and
// (b) arrives as a *dynamically linked extension* whose access rights are
// governed by logical protection domains.
//
// The example also demonstrates the protection model failing closed: the
// same extension cannot be linked against a domain that withholds the
// interfaces it imports.
#include <cstdio>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net/view.h"
#include "spin/linker.h"

namespace {

// The wire format of our application-specific protocol: a tiny sequenced
// audio frame header, viewed with net::View (the paper's VIEW operator).
struct AudioFrameHeader {
  net::BigEndian32 sequence;
  net::BigEndian16 codec;
  net::BigEndian16 samples;
};
static_assert(sizeof(AudioFrameHeader) == 8);

}  // namespace

int main() {
  sim::Simulator sim;
  drivers::PointToPointLink link(sim);
  core::PlexusHost sender(sim, "sender", sim::CostModel::Default1996(),
                          drivers::DeviceProfile::DecT3(),
                          {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24});
  core::PlexusHost receiver(sim, "receiver", sim::CostModel::Default1996(),
                            drivers::DeviceProfile::DecT3(),
                            {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24});
  sender.AttachTo(link);
  receiver.AttachTo(link);

  // --- The receiver-side extension, as a dynamically linked module --------
  std::shared_ptr<core::UdpEndpoint> rx_endpoint;
  std::uint32_t frames = 0, gaps = 0, expected_seq = 0;

  spin::Extension audio_rx("audio-receiver");
  audio_rx.Require("UdpManager").OnInit([&](const spin::SymbolTable& symbols) {
    auto* udp = symbols.GetAs<core::UdpManager*>("UdpManager");
    rx_endpoint = udp->CreateEndpoint(9000).value();
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "audio-rx";
    (void)rx_endpoint->InstallReceiveHandler(
        [&](const net::Mbuf& payload, const proto::UdpDatagram&) {
          // Zero-copy typed access to the header (VIEW).
          auto hdr = net::ViewPacket<AudioFrameHeader>(payload);
          if (hdr.sequence.value() != expected_seq) ++gaps;  // AV apps tolerate loss
          expected_seq = hdr.sequence.value() + 1;
          ++frames;
        },
        opts);
  });
  audio_rx.OnCleanup([&] { rx_endpoint.reset(); });

  // Linking against the APP domain succeeds: it exports UdpManager.
  auto linked = receiver.linker().Link(std::move(audio_rx), receiver.app_domain());
  if (!linked.ok()) {
    std::fprintf(stderr, "link failed: %s\n", linked.error().message.c_str());
    return 1;
  }
  std::printf("audio-receiver extension linked into the %s kernel\n",
              receiver.host().name().c_str());

  // A snooping extension that wants raw Ethernet access is REJECTED by the
  // same application domain (link-time protection).
  spin::Extension snooper("traffic-snooper");
  snooper.Require("EthernetManager");
  auto denied = receiver.linker().Link(std::move(snooper), receiver.app_domain());
  std::printf("traffic-snooper link against app domain: %s\n  -> %s\n",
              denied.ok() ? "ACCEPTED (bug!)" : "REJECTED",
              denied.ok() ? "" : denied.error().message.c_str());

  // --- The sender: checksum-free UDP, per the AV optimization --------------
  auto tx = sender.udp().CreateEndpoint(9001).value();
  tx->set_checksum_enabled(false);

  const int kFrames = 200;
  const std::size_t kFrameBytes = 1024;
  int sent = 0;
  std::function<void()> send_frame = [&] {
    sender.Run([&] {
      auto m = net::Mbuf::Allocate(sizeof(AudioFrameHeader) + kFrameBytes);
      AudioFrameHeader hdr;
      hdr.sequence = static_cast<std::uint32_t>(sent);
      hdr.codec = 0x0A;
      hdr.samples = 512;
      net::StorePacket(*m, hdr);
      tx->Send(std::move(m), net::Ipv4Address(10, 0, 0, 2), 9000);
    });
    if (++sent < kFrames) {
      sim.Schedule(sim::Duration::Millis(5), send_frame);  // 200 fps audio ticks
    }
  };
  send_frame();
  sim.RunFor(sim::Duration::Seconds(5));

  std::printf("\nsent %d frames (checksum OFF), received %u, sequence gaps %u\n", kFrames,
              frames, gaps);

  // --- Runtime adaptation: the extension leaves with its application -------
  receiver.linker().Unlink(linked.value());
  std::printf("extension unlinked; port 9000 released: %s\n",
              receiver.udp().CreateEndpoint(9000).ok() ? "yes" : "no");
  return 0;
}
