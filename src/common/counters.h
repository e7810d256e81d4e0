/**
 * @file
 * The one walker over counter structs (DESIGN.md §8).
 *
 * A counter struct names each counter once, in JSON export order, in
 *
 *     template <typename F, typename... S>
 *     static void fields(F &&f, S &...s) { f("pkt_lost", s.pktLost...); }
 *
 * so one walk visits that member of several instances in lockstep: a
 * later capture and an earlier one, a total and a part. A member is a
 * number, a fixed array of any rank, a std::vector, a string-keyed map
 * or CounterMap, a Sampler, a nested counter struct, or a member in
 * one of the markers below; a nullptr key keeps it out of the JSON
 * (CoreStats and CoreSlice reach it only through derived values, so
 * their keys just name the counters).
 * Flags that say whether a subsystem ran stay out of the lists, so
 * every walk keeps the first instance's flag.
 *
 * A delta or a sum of vectors needs equal sizes, except that a vector
 * empty in the earlier capture (or the addend) is skipped; a delta of
 * maps subtracts only the keys both captures hold.
 */

#ifndef SMTOS_COMMON_COUNTERS_H
#define SMTOS_COMMON_COUNTERS_H

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"

namespace smtos {

/** A point-in-time value (a mean, a quantile): a delta or a sum keeps
 *  the later operand's value. */
template <typename T>
struct Level
{
    T &v;
};

/** The chip cycle: a sum takes the max (the cores run in lockstep). */
template <typename T>
struct Peak
{
    T &v;
};

/** A counter exported as its ratio to another (0 when that is 0). */
template <typename T>
struct Per
{
    T &v;
    std::add_const_t<T> &per; // not deduced: T comes from v
};

/** An array exported as an object keyed by name(index). */
template <typename T>
struct ByName
{
    T &v;
    const char *(*name)(int);
};

/** The member a list entry refers to, through any marker. */
template <typename M>
auto &
counterOf(M &m)
{
    if constexpr (requires { m.v; })
        return m.v;
    else
        return m;
}

template <typename T>
constexpr bool isCounterVector = false;
template <typename T>
constexpr bool isCounterVector<std::vector<T>> = true;

template <typename T>
constexpr bool isNamedCounts =
    std::is_same_v<T, std::map<std::string, std::uint64_t>>;

template <typename M, template <typename> class Marker>
constexpr bool isMarker = false;
template <typename T, template <typename> class Marker>
constexpr bool isMarker<Marker<T>, Marker> = true;

/** @p a plus @p b when Sum, else @p a minus @p b, counter by counter
 *  (a map key's "minus" wraps, like every other u64 counter). */
template <bool Sum, typename T>
void
combineCounters(T &a, const T &b)
{
    if constexpr (std::is_arithmetic_v<T>) {
        a = Sum ? a + b : a - b;
    } else if constexpr (std::is_array_v<T> || isCounterVector<T>) {
        if (std::empty(b))
            return;
        smtos_assert(std::size(a) == std::size(b));
        for (std::size_t i = 0; i < std::size(a); ++i)
            combineCounters<Sum>(a[i], b[i]);
    } else if constexpr (std::is_same_v<T, Sampler>) {
        a = Sampler::fromSumCount(Sum ? a.sum() + b.sum() : a.sum() - b.sum(),
                                  Sum ? a.count() + b.count()
                                      : a.count() - b.count());
    } else if constexpr (std::is_same_v<T, CounterMap>) {
        for (const auto &[k, n] : b.all())
            if (Sum || a.all().count(k))
                a.add(k, Sum ? n : 0 - n);
    } else if constexpr (isNamedCounts<T>) {
        for (const auto &[k, n] : b)
            if (Sum || a.count(k))
                a[k] += Sum ? n : 0 - n;
    } else {
        T::fields(
            [](auto, auto &&am, auto &&bm) {
                using M = std::decay_t<decltype(am)>;
                if constexpr (isMarker<M, Level>) {
                    if constexpr (Sum)
                        am.v = bm.v;
                } else if constexpr (Sum && isMarker<M, Peak>) {
                    am.v = std::max(am.v, bm.v);
                } else {
                    combineCounters<Sum>(counterOf(am), counterOf(bm));
                }
            },
            a, b);
    }
}

/** Counter-wise @p later minus @p earlier: the interval delta. */
template <typename T>
T
counterDelta(const T &later, const T &earlier)
{
    T d = later;
    combineCounters<false>(d, earlier);
    return d;
}

/** Add @p s into @p into: the cross-core sum. */
template <typename T>
void
addCounters(T &into, const T &s)
{
    combineCounters<true>(into, s);
}

/** Write @p v as JSON; arrays and vectors become JSON arrays. */
template <typename T>
void
writeCounterJson(std::ostream &os, const T &v)
{
    if constexpr (std::is_arithmetic_v<T>) {
        os << v;
    } else if constexpr (std::is_array_v<T> || isCounterVector<T>) {
        os << "[";
        for (std::size_t i = 0; i < std::size(v); ++i) {
            os << (i ? "," : "");
            writeCounterJson(os, v[i]);
        }
        os << "]";
    } else {
        const char *sep = "{";
        T::fields(
            [&](auto key, const auto &m) {
                if constexpr (!std::is_null_pointer_v<decltype(key)>) {
                    using M = std::decay_t<decltype(m)>;
                    os << sep << "\"" << key << "\":";
                    sep = ",";
                    if constexpr (isMarker<M, Per>) {
                        os << ratio(static_cast<double>(m.v),
                                    static_cast<double>(m.per));
                    } else if constexpr (isMarker<M, ByName>) {
                        for (std::size_t i = 0; i < std::size(m.v); ++i)
                            os << (i ? ",\"" : "{\"")
                               << m.name(static_cast<int>(i))
                               << "\":" << m.v[i];
                        os << "}";
                    } else {
                        writeCounterJson(os, counterOf(m));
                    }
                }
            },
            v);
        os << "}";
    }
}

/** Read or write @p s's counters in list order through archive @p ar:
 *  numbers with io, arrays with pod, vectors as expect(size) and pod,
 *  classes through their own snap (see snap/snapshot.h). */
template <typename Ar, typename T>
void
snapCounters(Ar &ar, T &s)
{
    T::fields(
        [&ar](auto, auto &&m) {
            auto &v = counterOf(m);
            using V = std::remove_reference_t<decltype(v)>;
            if constexpr (std::is_arithmetic_v<V>) {
                ar.io(v);
            } else if constexpr (std::is_array_v<V>) {
                ar.pod(v);
            } else if constexpr (isCounterVector<V>) {
                ar.expect(v.size());
                ar.pod(v);
            } else {
                v.snap(ar);
            }
        },
        s);
}

} // namespace smtos

#endif // SMTOS_COMMON_COUNTERS_H
