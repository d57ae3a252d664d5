// The user-level disk server: per-client channels, DMA-buffer delegation
// checks, throttling, channel shutdown (§4.2 device-driver attacks).
#include "src/services/disk_server.h"

#include <gtest/gtest.h>

#include "src/root/system.h"
#include "src/sim/fault.h"

namespace nova::services {
namespace {

class DiskServerTest : public ::testing::Test {
 protected:
  DiskServerTest() : server_(system_.StartDiskServer()) {
    // A client domain with an EC to issue requests and a completion portal.
    client_sel_ = system_.root->CreatePd("client", false, &client_);
    const hv::CapSel ec_sel = system_.root->FreeSel();
    (void)system_.hv.CreateEcGlobal(system_.root->pd(), ec_sel, client_sel_, 0, [] {},
                              &client_ec_);
    const hv::CapSel comp_ec_sel = system_.root->FreeSel();
    (void)system_.hv.CreateEcLocal(system_.root->pd(), comp_ec_sel, client_sel_, 0,
                             [this](std::uint64_t) { ++completions_; },
                             &comp_ec_);
    comp_pt_sel_ = system_.root->FreeSel();
    (void)system_.hv.CreatePt(system_.root->pd(), comp_pt_sel_, comp_ec_sel, 0, 0);
    // Buffer pages owned by the client.
    buffer_page_ = system_.root->GrantMemory(client_sel_, 4, ~0ull, hv::perm::kRw,
                                             false, /*align_pow2=*/true);
  }

  DiskServer::Channel Open(std::uint32_t max_outstanding = 32) {
    return server_.OpenChannel(client_sel_, comp_pt_sel_, max_outstanding);
  }

  // Issue a read through the channel, delegating the buffer on the call.
  Status Issue(const DiskServer::Channel& ch, std::uint64_t lba,
               std::uint64_t sectors, bool delegate = true) {
    hv::Utcb& u = client_ec_->utcb();
    u.Clear();
    u.untyped = 5;
    u.words[0] = diskproto::kOpRead;
    u.words[1] = lba;
    u.words[2] = sectors;
    u.words[3] = buffer_page_;
    u.words[4] = next_cookie_++;
    if (delegate) {
      u.num_typed = 1;
      u.typed[0] = hv::TypedItem{hv::Crd::Mem(buffer_page_, 2, hv::perm::kRw),
                                 buffer_page_};
    }
    const Status s = system_.hv.Call(client_ec_, ch.request_portal);
    if (!Ok(s)) {
      return s;
    }
    return static_cast<Status>(u.words[0]);
  }

  void Drain() { system_.hv.RunUntil(system_.machine.events().now() + sim::Milliseconds(50)); }

  root::NovaSystem system_;
  DiskServer& server_;
  hv::Pd* client_ = nullptr;
  hv::CapSel client_sel_ = hv::kInvalidSel;
  hv::Ec* client_ec_ = nullptr;
  hv::Ec* comp_ec_ = nullptr;
  hv::CapSel comp_pt_sel_ = hv::kInvalidSel;
  std::uint64_t buffer_page_ = 0;
  std::uint64_t next_cookie_ = 100;
  int completions_ = 0;
};

TEST_F(DiskServerTest, ReadRequestCompletesAndNotifies) {
  const char payload[] = "disk server payload";
  system_.platform.disk->WriteContent(50 * hw::kSectorSize, payload,
                                      sizeof(payload));
  const auto ch = Open();
  ASSERT_NE(ch.request_portal, hv::kInvalidSel);
  ASSERT_EQ(Issue(ch, 50, 1), Status::kSuccess);
  Drain();
  EXPECT_EQ(server_.requests_completed(), 1u);
  EXPECT_EQ(completions_, 1);
  // The controller DMAed straight into the client's buffer.
  char out[sizeof(payload)] = {};
  (void)system_.machine.mem().Read(buffer_page_ << hw::kPageShift, out, sizeof(out));
  EXPECT_STREQ(out, payload);
  // Completion record in the shared ring.
  DiskCompletionRecord rec{};
  (void)system_.machine.mem().Read(ch.shared_page << hw::kPageShift, &rec, sizeof(rec));
  EXPECT_EQ(rec.cookie, 100u);
  EXPECT_EQ(rec.status, 0u);
}

TEST_F(DiskServerTest, UndelegatedBufferRejected) {
  const auto ch = Open();
  EXPECT_EQ(Issue(ch, 1, 1, /*delegate=*/false), Status::kDenied);
  EXPECT_EQ(server_.requests_issued(), 0u);
}

TEST_F(DiskServerTest, ThrottleLimitsOutstandingRequests) {
  const auto ch = Open(/*max_outstanding=*/2);
  EXPECT_EQ(Issue(ch, 0, 1), Status::kSuccess);
  EXPECT_EQ(Issue(ch, 8, 1), Status::kSuccess);
  // Third request exceeds the per-channel limit (§4.2 DoS defence).
  EXPECT_EQ(Issue(ch, 16, 1), Status::kOverflow);
  EXPECT_EQ(server_.requests_throttled(), 1u);
  Drain();
  // After completions drain, the channel accepts requests again.
  EXPECT_EQ(Issue(ch, 16, 1), Status::kSuccess);
}

TEST_F(DiskServerTest, ShutChannelRejectsFurtherRequests) {
  const auto ch = Open();
  ASSERT_EQ(Issue(ch, 0, 1), Status::kSuccess);
  server_.ShutChannel(0);
  EXPECT_EQ(Issue(ch, 8, 1), Status::kDenied);
}

TEST_F(DiskServerTest, MalformedRequestsRejected) {
  const auto ch = Open();
  hv::Utcb& u = client_ec_->utcb();
  // Too few words.
  u.Clear();
  u.untyped = 2;
  ASSERT_EQ(system_.hv.Call(client_ec_, ch.request_portal), Status::kSuccess);
  EXPECT_EQ(static_cast<Status>(u.words[0]), Status::kBadParameter);
  // Zero sectors.
  EXPECT_EQ(Issue(ch, 0, 0), Status::kBadParameter);
  // Oversized transfer.
  EXPECT_EQ(Issue(ch, 0, 1000), Status::kBadParameter);
}

TEST_F(DiskServerTest, TwoClientsHaveIndependentChannels) {
  const auto ch1 = Open();
  // Second client domain.
  hv::Pd* client2 = nullptr;
  const hv::CapSel client2_sel = system_.root->CreatePd("client2", false, &client2);
  const auto ch2 = server_.OpenChannel(client2_sel, comp_pt_sel_);
  // Selectors are per-domain indices; the portals behind them differ.
  EXPECT_NE(client_->caps().LookupRef(ch1.request_portal).get(),
            client2->caps().LookupRef(ch2.request_portal).get());
  EXPECT_NE(ch1.shared_page, ch2.shared_page);
  // Shutting client 2's channel leaves client 1 working.
  server_.ShutChannel(1);
  EXPECT_EQ(Issue(ch1, 0, 1), Status::kSuccess);
}

TEST_F(DiskServerTest, WriteRequestPersistsToDisk) {
  const char data[] = "written by client";
  (void)system_.machine.mem().Write(buffer_page_ << hw::kPageShift, data, sizeof(data));
  const auto ch = Open();
  hv::Utcb& u = client_ec_->utcb();
  u.Clear();
  u.untyped = 5;
  u.words[0] = diskproto::kOpWrite;
  u.words[1] = 77;
  u.words[2] = 1;
  u.words[3] = buffer_page_;
  u.words[4] = 1;
  u.num_typed = 1;
  u.typed[0] =
      hv::TypedItem{hv::Crd::Mem(buffer_page_, 2, hv::perm::kRw), buffer_page_};
  ASSERT_EQ(system_.hv.Call(client_ec_, ch.request_portal), Status::kSuccess);
  ASSERT_EQ(static_cast<Status>(u.words[0]), Status::kSuccess);
  Drain();
  char out[sizeof(data)] = {};
  system_.platform.disk->ReadContent(77 * hw::kSectorSize, out, sizeof(out));
  EXPECT_STREQ(out, data);
}

TEST_F(DiskServerTest, RequestDeadlineTimesOutAndServerRecovers) {
  // A deadline far below the media service time (~180 us for one sector):
  // the request must be retired with a typed kTimeout completion, not hang.
  server_.SetRequestDeadline(sim::Microseconds(20), /*max_retries=*/0, 0);
  const auto ch = Open();
  ASSERT_EQ(Issue(ch, 4, 1), Status::kSuccess);
  Drain();
  EXPECT_EQ(server_.requests_failed(), 1u);
  EXPECT_EQ(completions_, 1);
  DiskCompletionRecord rec{};
  (void)system_.machine.mem().Read(ch.shared_page << hw::kPageShift, &rec, sizeof(rec));
  EXPECT_EQ(rec.status, static_cast<std::uint64_t>(Status::kTimeout));
  // The slot sat in quarantine while the stale hardware command finished,
  // then was released: with a sane deadline the server serves again.
  server_.SetRequestDeadline(sim::Milliseconds(50), 0, 0);
  ASSERT_EQ(Issue(ch, 8, 1), Status::kSuccess);
  Drain();
  EXPECT_EQ(server_.requests_completed(), 1u);
}

TEST_F(DiskServerTest, FaultScheduleSweepRetiresEveryRequest) {
  // Seeded media-error schedules with retry budgets: whatever the schedule
  // injects, every accepted request ends in exactly one typed completion —
  // the issue/retire counters balance and the server never wedges.
  server_.SetRequestDeadline(sim::Milliseconds(5), /*max_retries=*/2,
                             sim::Microseconds(50));
  const auto ch = Open();
  std::uint64_t sent = 0;
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    sim::FaultPlan plan(seed);
    plan.Schedule({.at = 0,  // Active immediately: no queued events.
                   .kind = sim::FaultKind::kDiskMediaError,
                   .target = "disk",
                   .count = 2 + seed % 3,
                   .rate = 0.5});
    plan.Arm(&system_.machine.events());
    system_.platform.disk->set_fault_plan(&plan);
    for (int burst = 0; burst < 4; ++burst) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(Issue(ch, 8 * static_cast<std::uint64_t>(sent), 1),
                  Status::kSuccess);
        ++sent;
      }
      Drain();
    }
    system_.platform.disk->set_fault_plan(nullptr);
  }
  EXPECT_EQ(server_.requests_issued(), sent);
  EXPECT_EQ(server_.requests_completed() + server_.requests_failed(), sent);
  EXPECT_EQ(completions_, static_cast<int>(sent));
  // Every ring record is a typed outcome: success or a bounded error.
  for (std::uint64_t i = 0; i < sent; ++i) {
    DiskCompletionRecord rec{};
    (void)system_.machine.mem().Read(
        (ch.shared_page << hw::kPageShift) + i * sizeof(rec), &rec, sizeof(rec));
    EXPECT_TRUE(rec.status == 0 ||
                rec.status == static_cast<std::uint64_t>(Status::kBadDevice) ||
                rec.status == static_cast<std::uint64_t>(Status::kTimeout))
        << "record " << i << " status " << rec.status;
  }
}

TEST_F(DiskServerTest, ClosedChannelIsRecycledWithoutNewRingFrame) {
  const auto ch1 = Open();
  ASSERT_EQ(Issue(ch1, 0, 1), Status::kSuccess);
  server_.CloseChannel(ch1.channel_id);
  // The orphaned request's completion is dropped, not delivered.
  Drain();
  EXPECT_EQ(completions_, 0);
  // A new client reuses the retired channel: same id, same ring frame.
  const auto ch2 = Open();
  EXPECT_EQ(ch2.channel_id, ch1.channel_id);
  EXPECT_EQ(ch2.shared_page, ch1.shared_page);
  ASSERT_EQ(Issue(ch2, 8, 1), Status::kSuccess);
  Drain();
  EXPECT_EQ(completions_, 1);
  DiskCompletionRecord rec{};
  (void)system_.machine.mem().Read(ch2.shared_page << hw::kPageShift, &rec, sizeof(rec));
  EXPECT_EQ(rec.status, 0u);
}

TEST_F(DiskServerTest, ServerCannotTouchHypervisorMemory) {
  // The server's device DMA is confined by the IOMMU to memory delegated
  // to the server domain; the hypervisor range is always blocked.
  const std::uint64_t faults = system_.machine.iommu().faults();
  hv::Utcb& u = client_ec_->utcb();
  const auto ch = Open();
  u.Clear();
  u.untyped = 5;
  u.words[0] = diskproto::kOpRead;
  u.words[1] = 0;
  u.words[2] = 1;
  u.words[3] = 8;  // Frame 8: inside the kernel reserve.
  u.words[4] = 1;
  ASSERT_EQ(system_.hv.Call(client_ec_, ch.request_portal), Status::kSuccess);
  // The server rejects it outright (not delegated); even if it tried, the
  // IOMMU would fault the transfer.
  EXPECT_EQ(static_cast<Status>(u.words[0]), Status::kDenied);
  EXPECT_EQ(system_.machine.iommu().faults(), faults);
}

// Root delegates the AHCI window when it builds the server, and nothing
// revokes it. A server whose window is gone anyway stops at its first
// register access, naming the register and the refusal, where it used to
// write nothing and read all ones.
using DiskServerDeathTest = DiskServerTest;

TEST_F(DiskServerDeathTest, RevokedWindowAbortsOnFirstAccess) {
  const auto ch = Open();
  ASSERT_NE(ch.request_portal, hv::kInvalidSel);
  ASSERT_EQ(system_.hv.Revoke(system_.root->pd(),
                              hv::Crd::Mem(root::kAhciMmioBase >> hw::kPageShift, 0,
                                           hv::perm::kRw),
                              /*include_self=*/false),
            Status::kSuccess);
  EXPECT_DEATH((void)Issue(ch, 50, 1), "AHCI write at offset 0x138 failed: kDenied");
}

// The server's construction stops at the first call the root refuses and
// names it, where it used to go on and dereference the request handler a
// failed CreateEcLocal had left null. A root whose platform registers no
// AHCI controller has no device to assign.
TEST(DiskServerSetupDeathTest, RootWithoutAhciDeviceAbortsNamingAssignDevice) {
  hw::Machine machine(hw::MachineConfig{});
  hv::Hypervisor hv(&machine);
  hv.Boot();
  root::RootPartitionManager root(&hv);
  EXPECT_DEATH({ DiskServer server(&hv, &root, 0); },
               "services::DiskServer: AssignDevice\\(ahci\\) failed: kBadDevice");
}

// The command list and tables come from the root's RAM. With none left the
// server stops naming the grant, where it used to program page 0.
TEST(DiskServerSetupDeathTest, ExhaustedRootRamAbortsNamingGrantMemory) {
  root::NovaSystem system;
  for (std::uint64_t pages = 1ull << 20; pages != 0; pages /= 2) {
    while (system.root->AllocPages(pages) != 0) {
    }
  }
  EXPECT_DEATH((void)system.StartDiskServer(),
               "services::DiskServer: GrantMemory\\(command list\\) failed");
}

// A device window the hypervisor refuses records no device, so no domain
// is later assigned a window the root never held.
TEST(RootDeviceRegistry, RefusedWindowRecordsNoDevice) {
  root::NovaSystem system;
  EXPECT_EQ(system.root->RegisterDevice(
                "extra", root::DeviceInfo{.mmio_base = root::kAhciMmioBase + 8,
                                          .mmio_size = 0x1000}),
            Status::kBadParameter);
  EXPECT_EQ(system.root->FindDevice("extra"), nullptr);
}

}  // namespace
}  // namespace nova::services
