/**
 * @file
 * Process-wide sharing of immutable code images.
 *
 * The kernel image and the workloads' user images are generated from
 * their parameters alone and never change once built, so every System
 * and Session built from the same key can read one copy. An
 * ImageTable hands them out as std::shared_ptr<const T>:
 *
 *  - It holds weak references only. An image lives exactly as long as
 *    some holder keeps it; expired entries are dropped whenever a key
 *    is inserted, so the table is as small as the set of live images.
 *  - A request that finds its key's build in flight waits for that
 *    build instead of starting a second one. No lock is held while an
 *    image is generated, so builds of different keys never wait on
 *    each other.
 *
 * These images are the only state that runs on different threads (the
 * parallel runner, the sweep engine) share.
 */

#ifndef SMTOS_ISA_IMAGETABLE_H
#define SMTOS_ISA_IMAGETABLE_H

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

namespace smtos {

/** Live images of type @p T by @p Key (ordered by operator<). */
template <typename Key, typename T>
class ImageTable
{
  public:
    /**
     * The live image of @p key, or else the one @p build() returns
     * (anything convertible to std::shared_ptr<const T>), which later
     * requests of @p key share while it lives. The simulator's error
     * model is panic/abort, so a build never unwinds past here.
     */
    template <typename Build>
    std::shared_ptr<const T>
    get(const Key &key, Build &&build)
    {
        std::unique_lock lock(mutex_);
        built_.wait(lock, [&] {
            const auto it = entries_.find(key);
            return it == entries_.end() || !it->second.building;
        });
        if (const auto it = entries_.find(key); it != entries_.end()) {
            if (std::shared_ptr<const T> live = it->second.image.lock())
                return live;
        }
        // Not built, or expired: build it here, marked in flight.
        std::erase_if(entries_, [](const auto &e) {
            return !e.second.building && e.second.image.expired();
        });
        entries_[key].building = true;
        lock.unlock();

        std::shared_ptr<const T> image = build();

        lock.lock();
        entries_[key] = Entry{image, false};
        lock.unlock();
        built_.notify_all();
        return image;
    }

  private:
    struct Entry
    {
        std::weak_ptr<const T> image;
        bool building = false;
    };

    std::mutex mutex_;
    /** Signalled when a build finishes. */
    std::condition_variable built_;
    std::map<Key, Entry> entries_;
};

} // namespace smtos

#endif // SMTOS_ISA_IMAGETABLE_H
