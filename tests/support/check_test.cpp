/// \file check_test.cpp
/// Tests for the invariant auditor itself (src/support/check.hpp): the
/// count-and-continue mode lets these tests deliberately violate
/// invariants — corrupt a CMF prefix, double-migrate a task — and assert
/// the auditor fires, without dying. Contract violations (assert.hpp) are
/// always-on and covered with death tests.

#include "support/check.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "lb/cmf.hpp"
#include "lb/knowledge.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"

namespace tlb {
namespace {

/// Every test in this file runs the auditor in count mode and restores the
/// default abort mode afterwards, so a genuine violation elsewhere in the
/// suite still aborts loudly.
class AuditorTest : public ::testing::Test {
protected:
  void SetUp() override {
    audit::set_mode(audit::Mode::count);
    audit::reset_violations();
  }
  void TearDown() override {
    audit::reset_violations();
    audit::set_mode(audit::Mode::abort_process);
  }
};

TEST_F(AuditorTest, ReportCountsInsteadOfAborting) {
  EXPECT_EQ(audit::violation_count(), 0u);
  audit::report("1 == 2", "test invariant", __FILE__, __LINE__);
  EXPECT_EQ(audit::violation_count(), 1u);
  EXPECT_NE(audit::last_violation().find("test invariant"),
            std::string::npos);
  audit::report("3 == 4", "another", __FILE__, __LINE__);
  EXPECT_EQ(audit::violation_count(), 2u);
  audit::reset_violations();
  EXPECT_EQ(audit::violation_count(), 0u);
  EXPECT_EQ(audit::last_violation(), "");
}

TEST_F(AuditorTest, EnabledMatchesBuildConfiguration) {
#if TLB_AUDIT_ENABLED
  // Compiled in: enabled unless the environment said TLB_AUDIT=0.
  char const* const env = std::getenv("TLB_AUDIT");
  bool const env_off = env != nullptr && env[0] == '0' && env[1] == '\0';
  EXPECT_EQ(audit::enabled(), !env_off);
#else
  EXPECT_FALSE(audit::enabled());
#endif
}

TEST_F(AuditorTest, InvariantMacroFiresOnlyWhenFalse) {
  TLB_INVARIANT(1 + 1 == 2, "arithmetic holds");
  EXPECT_EQ(audit::violation_count(), 0u);
  TLB_INVARIANT(1 + 1 == 3, "arithmetic broken on purpose");
#if TLB_AUDIT_ENABLED
  if (audit::enabled()) {
    EXPECT_EQ(audit::violation_count(), 1u);
    EXPECT_NE(audit::last_violation().find("arithmetic broken"),
              std::string::npos);
  }
#else
  // Compiled out: the deliberately false condition must cost nothing and
  // record nothing.
  EXPECT_EQ(audit::violation_count(), 0u);
#endif
}

TEST_F(AuditorTest, ValidCmfPassesTheAuditor) {
  lb::Knowledge knowledge;
  knowledge.insert(1, 2.0);
  knowledge.insert(2, 6.0);
  knowledge.insert(3, 1.0);
  lb::Cmf const cmf{lb::CmfKind::modified, knowledge.entries(), 4.0, 0};
  EXPECT_FALSE(cmf.empty());
  EXPECT_EQ(audit::violation_count(), 0u) << audit::last_violation();
}

TEST_F(AuditorTest, CorruptedCmfPrefixTriggersTheAuditor) {
  if (!audit::enabled()) {
    GTEST_SKIP() << "auditor not compiled in (build with -DTLB_AUDIT=ON)";
  }
  // A healthy prefix is silent...
  std::vector<double> const good{0.25, 0.5, 1.0};
  lb::audit_cmf_prefix(good);
  EXPECT_EQ(audit::violation_count(), 0u);
  // ...a non-monotone prefix fires,
  std::vector<double> const non_monotone{0.5, 0.25, 1.0};
  lb::audit_cmf_prefix(non_monotone);
  EXPECT_GE(audit::violation_count(), 1u);
  EXPECT_NE(audit::last_violation().find("monotone"), std::string::npos);
  // ...as does a distribution whose last bucket is not pinned to 1,
  audit::reset_violations();
  std::vector<double> const unpinned{0.25, 0.5, 0.99};
  lb::audit_cmf_prefix(unpinned);
  EXPECT_GE(audit::violation_count(), 1u);
  // ...and mass outside (0, 1].
  audit::reset_violations();
  std::vector<double> const overflowing{0.25, 1.5, 1.0};
  lb::audit_cmf_prefix(overflowing);
  EXPECT_GE(audit::violation_count(), 1u);
}

struct TestPayload : rt::Migratable {
  [[nodiscard]] std::size_t wire_bytes() const override { return 8; }
};

TEST_F(AuditorTest, DoubleMigrateDiesOnContractViolation) {
  // Migrating the same task twice in one batch presents a stale `from` on
  // the second entry; the always-on contract check must refuse it. (This
  // guards the migration layer's precondition in every build, audit or
  // not — death test because assert.hpp aborts.)
  rt::RuntimeConfig cfg;
  cfg.num_ranks = 2;
  rt::Runtime runtime{cfg};
  rt::ObjectStore store{2};
  store.create(0, 7, std::make_unique<TestPayload>());
  std::vector<Migration> const twice{Migration{7, 0, 1, 1.0},
                                     Migration{7, 0, 1, 1.0}};
  EXPECT_DEATH(store.migrate(runtime, twice), "precondition");
}

TEST_F(AuditorTest, MigrationFromWrongRankDiesOnContractViolation) {
  rt::RuntimeConfig cfg;
  cfg.num_ranks = 3;
  rt::Runtime runtime{cfg};
  rt::ObjectStore store{3};
  store.create(2, 11, std::make_unique<TestPayload>());
  std::vector<Migration> const wrong{Migration{11, 0, 1, 1.0}};
  EXPECT_DEATH(store.migrate(runtime, wrong), "precondition");
}

} // namespace
} // namespace tlb
