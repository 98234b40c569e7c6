/**
 * @file
 * Pins the DFH state machine to paper Table 1 / Table 2, row by row,
 * plus the documented conservative fills for combinations the table
 * leaves unspecified. Exhaustive over the full signal space so any
 * accidental change to the FSM fails loudly.
 */

#include <gtest/gtest.h>

#include "killi/dfh.hh"

using namespace killi;

TEST(DfhTest, EncodingsMatchTable1)
{
    EXPECT_EQ(static_cast<unsigned>(Dfh::Stable0), 0b00u);
    EXPECT_EQ(static_cast<unsigned>(Dfh::Initial), 0b01u);
    EXPECT_EQ(static_cast<unsigned>(Dfh::Stable1), 0b10u);
    EXPECT_EQ(static_cast<unsigned>(Dfh::Disabled), 0b11u);
    EXPECT_EQ(dfhName(Dfh::Initial), "b'01");
}

// --- Stable0 (b'00): only parity is available -----------------------

TEST(DfhStable0Test, CleanParityStays)
{
    const DfhDecision d = dfhOnStable0(SParity::Ok);
    EXPECT_EQ(d.next, Dfh::Stable0);
    EXPECT_EQ(d.action, DfhAction::SendClean);
    EXPECT_FALSE(d.freeEccEntry);
}

TEST(DfhStable0Test, SingleMismatchRelearns)
{
    // Table 2 row 2: "1-bit error discovered after training; initial
    // classification incorrect" -> b'01 + error-induced miss.
    const DfhDecision d = dfhOnStable0(SParity::Single);
    EXPECT_EQ(d.next, Dfh::Initial);
    EXPECT_EQ(d.action, DfhAction::ErrorMiss);
}

TEST(DfhStable0Test, MultiMismatchDisables)
{
    const DfhDecision d = dfhOnStable0(SParity::Multi);
    EXPECT_EQ(d.next, Dfh::Disabled);
    EXPECT_EQ(d.action, DfhAction::ErrorMiss);
}

// --- Initial (b'01): parity + SECDED ---------------------------------

TEST(DfhInitialTest, AllCleanTrainsToStable0)
{
    // "No Error. Most frequent scenario."
    const DfhDecision d = dfhOnInitial(SParity::Ok, false, false);
    EXPECT_EQ(d.next, Dfh::Stable0);
    EXPECT_EQ(d.action, DfhAction::SendClean);
    EXPECT_TRUE(d.freeEccEntry); // "Invalidate entry in ECC cache"
}

TEST(DfhInitialTest, SingleBitLvError)
{
    // (x, x, x): correct using checkbits, move to b'10.
    const DfhDecision d = dfhOnInitial(SParity::Single, true, true);
    EXPECT_EQ(d.next, Dfh::Stable1);
    EXPECT_EQ(d.action, DfhAction::CorrectAndSend);
    EXPECT_FALSE(d.freeEccEntry);
}

TEST(DfhInitialTest, DoubleErrorSignatureDisables)
{
    // Syndrome non-zero with matching global parity = even error
    // count; Table 2 disables for every parity observation.
    for (const SParity sp :
         {SParity::Ok, SParity::Single, SParity::Multi}) {
        const DfhDecision d = dfhOnInitial(sp, true, false);
        EXPECT_EQ(d.next, Dfh::Disabled);
        EXPECT_EQ(d.action, DfhAction::ErrorMiss);
    }
}

TEST(DfhInitialTest, MultiSegmentMismatchDisables)
{
    // (xx, *, *) rows all disable.
    for (const bool syn : {false, true}) {
        for (const bool gp : {false, true}) {
            const DfhDecision d = dfhOnInitial(SParity::Multi, syn, gp);
            EXPECT_EQ(d.next, Dfh::Disabled);
            EXPECT_EQ(d.action, DfhAction::ErrorMiss);
        }
    }
}

TEST(DfhInitialTest, MetadataFaultFillsTreatAsStable1)
{
    // Unspecified combinations attributed to metadata-cell faults
    // keep the payload and remember one LV fault (documented fills).
    const DfhDecision a = dfhOnInitial(SParity::Ok, false, true);
    EXPECT_EQ(a.next, Dfh::Stable1);
    const DfhDecision b = dfhOnInitial(SParity::Ok, true, true);
    EXPECT_EQ(b.next, Dfh::Stable1);
    const DfhDecision c = dfhOnInitial(SParity::Single, false, false);
    EXPECT_EQ(c.next, Dfh::Stable1);
    EXPECT_EQ(c.action, DfhAction::SendClean); // payload is intact
}

TEST(DfhInitialTest, ParityPlusOverallCheckbitDisables)
{
    const DfhDecision d = dfhOnInitial(SParity::Single, false, true);
    EXPECT_EQ(d.next, Dfh::Disabled);
}

// --- Stable1 (b'10) ---------------------------------------------------

TEST(DfhStable1Test, AllCleanDemotesToStable0)
{
    // "Non-LV transient error that was subsequently overwritten."
    const DfhDecision d = dfhOnStable1(SParity::Ok, false, false);
    EXPECT_EQ(d.next, Dfh::Stable0);
    EXPECT_EQ(d.action, DfhAction::SendClean);
    EXPECT_TRUE(d.freeEccEntry);
}

TEST(DfhStable1Test, SingleBitErrorCorrects)
{
    // "Don't Care / x / x -> 10": parity observation is irrelevant.
    for (const SParity sp :
         {SParity::Ok, SParity::Single, SParity::Multi}) {
        const DfhDecision d = dfhOnStable1(sp, true, true);
        EXPECT_EQ(d.next, Dfh::Stable1);
        EXPECT_EQ(d.action, DfhAction::CorrectAndSend);
    }
}

TEST(DfhStable1Test, ParitySeesWhatEccCannot)
{
    // (x or xx, ok, ok): likely non-LV + LV combination -> disable.
    for (const SParity sp : {SParity::Single, SParity::Multi}) {
        const DfhDecision d = dfhOnStable1(sp, false, false);
        EXPECT_EQ(d.next, Dfh::Disabled);
        EXPECT_EQ(d.action, DfhAction::ErrorMiss);
    }
}

TEST(DfhStable1Test, EvenErrorCountDisables)
{
    // (xx, x, ok) -> 11 and the single-segment fill.
    for (const SParity sp :
         {SParity::Ok, SParity::Single, SParity::Multi}) {
        const DfhDecision d = dfhOnStable1(sp, true, false);
        EXPECT_EQ(d.next, Dfh::Disabled);
    }
}

TEST(DfhStable1Test, OverallCheckbitFaultCorrects)
{
    const DfhDecision d = dfhOnStable1(SParity::Ok, false, true);
    EXPECT_EQ(d.next, Dfh::Stable1);
    EXPECT_EQ(d.action, DfhAction::CorrectAndSend);
}

TEST(DfhStable1Test, ErrorOnFaultyLineDisables)
{
    // (xx, ok, x) -> 11 ("error on line with existing 1-bit fault").
    const DfhDecision d = dfhOnStable1(SParity::Multi, false, true);
    EXPECT_EQ(d.next, Dfh::Disabled);
    const DfhDecision e = dfhOnStable1(SParity::Single, false, true);
    EXPECT_EQ(e.next, Dfh::Disabled);
}

// --- Global sanity ----------------------------------------------------

TEST(DfhTest, EveryCombinationYieldsAValidDecision)
{
    for (const SParity sp :
         {SParity::Ok, SParity::Single, SParity::Multi}) {
        for (const bool syn : {false, true}) {
            for (const bool gp : {false, true}) {
                for (const auto &d :
                     {dfhOnInitial(sp, syn, gp),
                      dfhOnStable1(sp, syn, gp)}) {
                    EXPECT_NE(d.next, Dfh::Initial) << "no decision "
                        "may park a line back in the initial state "
                        "except Stable0's relearn row";
                    // ErrorMiss decisions never deliver data, so
                    // they must not claim a correction.
                    if (d.action == DfhAction::ErrorMiss) {
                        EXPECT_FALSE(d.freeEccEntry);
                    }
                }
            }
        }
    }
}

TEST(DfhTest, DisabledIsTerminalUntilReset)
{
    // No transition function accepts Disabled as input: the cache
    // never reads disabled lines. This is a documentation-by-test of
    // the invariant enforced in KilliProtection::onReadHit.
    SUCCEED();
}

TEST(DfhTest, FreeEccEntryExactlyOnDemotionToStable0)
{
    // The freeEccEntry flag drives the controller's entry release on
    // read hits; it must fire exactly when a line demotes to b'00
    // (which no longer needs checkbits) and never on transitions
    // that keep — or will immediately re-install — protection.
    EXPECT_TRUE(dfhOnInitial(SParity::Ok, false, false).freeEccEntry);
    EXPECT_TRUE(dfhOnStable1(SParity::Ok, false, false).freeEccEntry);

    EXPECT_FALSE(
        dfhOnInitial(SParity::Single, true, true).freeEccEntry);
    EXPECT_FALSE(dfhOnStable1(SParity::Ok, true, true).freeEccEntry);
    for (const SParity sp :
         {SParity::Ok, SParity::Single, SParity::Multi}) {
        const DfhDecision d = dfhOnStable0(sp);
        EXPECT_FALSE(d.freeEccEntry); // b'00 lines hold no entry
    }
}
