/**
 * @file
 * Test helper: the message of the killi::Error a call throws, for
 * checking both that it throws and what it says.
 */

#ifndef KILLI_TESTS_ERROR_TEXT_HH
#define KILLI_TESTS_ERROR_TEXT_HH

#include <string>

#include <gtest/gtest.h>

#include "common/log.hh"

namespace killi
{

/** The what() of the killi::Error @p body throws; "" and a test
 *  failure when it throws none. */
template <class Body>
std::string
errorText(Body &&body)
{
    try {
        body();
    } catch (const Error &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a killi::Error";
    return "";
}

} // namespace killi

#endif // KILLI_TESTS_ERROR_TEXT_HH
