/**
 * @file
 * Strict whole-number parsing for command-line flags, environment
 * variables and failpoint specs.
 */

#ifndef AREGION_SUPPORT_WHOLE_NUMBER_HH
#define AREGION_SUPPORT_WHOLE_NUMBER_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace aregion {

/** `text` read as a whole number: decimal digits only (no sign, space
 *  or base prefix), within uint64_t. */
inline std::optional<uint64_t>
wholeNumber(std::string_view text)
{
    const char *last = text.data() + text.size();
    uint64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{} || end != last)
        return std::nullopt;
    return value;
}

} // namespace aregion

#endif // AREGION_SUPPORT_WHOLE_NUMBER_HH
