/**
 * @file
 * EXPECT_THROW that also checks the message: the statement must
 * throw @p type whose what() contains @p fragment.
 */

#ifndef LSIM_TESTS_EXPECT_THROW_HH
#define LSIM_TESTS_EXPECT_THROW_HH

#include <gtest/gtest.h>

#include <string>

#define EXPECT_THROW_WITH(statement, type, fragment)                   \
    EXPECT_THROW(                                                      \
        try { statement; } catch (const type &thrown_) {               \
            EXPECT_NE(std::string(thrown_.what()).find(fragment),      \
                      std::string::npos)                               \
                << "unexpected message: " << thrown_.what();           \
            throw;                                                     \
        },                                                             \
        type)

#endif // LSIM_TESTS_EXPECT_THROW_HH
