/**
 * @file
 * The one reader of the SMTOS_* key=value grammars.
 *
 * Each parameter struct names its fields once, in CFG order, in a
 * static `template <typename P, typename F> fields(P &p, F &&f)` that
 * calls f("key", m) per member, f("key", lo, hi) for a bound pair
 * ("key=a" sets both, "key=a:b" each), and f("", flag) for the enabled
 * flag, which the CFG carries and a parse sets. configFields
 * (harness/session.cc) walks the members, parseParams() the keys; it
 * and Session::validate() both apply the struct's check().
 *
 * Value rules: the whole value must parse (no sign, no spaces, no
 * suffix); integers are decimal or 0x hex and must fit the member;
 * decimals are finite; booleans are 0 or 1; enums take a name from
 * their enumNames() table.
 */

#ifndef SMTOS_COMMON_PARAMS_H
#define SMTOS_COMMON_PARAMS_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

namespace smtos {

/** Parse one value by the rules above; false when malformed. */
template <typename T>
bool
parseValue(std::string_view s, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        out = s == "1";
        return s == "0" || s == "1";
    } else if constexpr (std::is_enum_v<T>) {
        const auto names = enumNames(T{});
        const auto it = std::find(names.begin(), names.end(), s);
        out = static_cast<T>(it - names.begin());
        return it != names.end();
    } else {
        const bool hex = std::is_integral_v<T> && s.starts_with("0x");
        s.remove_prefix(hex ? 2 : 0);
        const char *end = s.data() + s.size();
        std::from_chars_result r{};
        if constexpr (std::is_integral_v<T>)
            r = std::from_chars(s.data(), end, out, hex ? 16 : 10);
        else
            r = std::from_chars(s.data(), end, out);
        return !s.starts_with('-') && r.ec == std::errc() &&
               r.ptr == end && std::isfinite(out);
    }
}

/** A bound pair: "a" sets both bounds, "a:b" sets each. */
template <typename T>
bool
parseValue(std::string_view s, T &lo, T &hi)
{
    const std::size_t colon = s.find(':');
    return parseValue(s.substr(0, colon), lo) &&
           parseValue(colon == s.npos ? s : s.substr(colon + 1), hi);
}

/** A grammar parse: the struct, or why the string was rejected. */
template <typename P>
struct Parsed
{
    P value{};         ///< default-constructed on error
    std::string error; ///< empty: value is the parse
};

/** Read "key=value,..." into a P through P::fields, then apply
 *  P::check(). Empty items are skipped; a repeated key's last value
 *  wins; every error names the offending item or key. */
template <typename P>
Parsed<P>
parseParams(std::string_view spec)
{
    Parsed<P> r;
    // The keyless field is the enabled flag: a parse sets it.
    P::fields(r.value, [](std::string_view key, auto &m, auto &...) {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>, bool>)
            m = m || key.empty();
    });
    while (!spec.empty() && r.error.empty()) {
        const std::string_view item = spec.substr(0, spec.find(','));
        spec.remove_prefix(std::min(item.size() + 1, spec.size()));
        const std::size_t eq = item.find('=');
        const std::string key(item.substr(0, eq));
        if (item.empty())
            continue;
        r.error = eq == item.npos ? "expected key=value, got '" + key + "'"
                                  : "unknown key '" + key + "'";
        P::fields(r.value, [&](std::string_view k, auto &...m) {
            const std::string_view val = item.substr(eq + 1);
            if (eq != item.npos && !k.empty() && k == key)
                r.error = parseValue(val, m...) ? ""
                          : "bad value '" + std::string(val) + "' for " + key;
        });
    }
    if (r.error.empty())
        r.error = r.value.check();
    if (!r.error.empty())
        r.value = P{};
    return r;
}

} // namespace smtos

#endif // SMTOS_COMMON_PARAMS_H
