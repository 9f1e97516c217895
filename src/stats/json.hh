/**
 * @file
 * The tree's one JSON writer: string escaping, number formatting and
 * indentation for every JSON artifact (scenario point/summary files
 * and the bench --json report).
 *
 * Numbers print with "%.10g"; non-finite values (an empty run's
 * percentiles) print as null. Objects and arrays are indented two
 * spaces per level, one member per line; an array opened with
 * `inline_values` (and anything nested in it) stays on one line.
 *
 *   stats::JsonWriter w;
 *   w.beginObject();
 *   w.value("name", "herd");
 *   w.beginArray("per_core", true);
 *   w.value(nullptr, 3u);
 *   w.end();
 *   w.end();
 */

#ifndef RPCVALET_STATS_JSON_HH
#define RPCVALET_STATS_JSON_HH

#include <string>
#include <type_traits>
#include <vector>

namespace rpcvalet::stats {

/** @p s with JSON string escapes applied (no surrounding quotes). */
std::string jsonEscape(const std::string &s);

/** "%.10g", or "null" when @p v is not finite. */
std::string jsonNumber(double v);

/** Streaming writer; @p key is the member name inside an object and
 *  must be nullptr for array elements and the top-level value. */
class JsonWriter
{
  public:
    void beginObject(const char *key = nullptr);
    void beginArray(const char *key = nullptr, bool inline_values = false);
    /** Close the innermost object or array. */
    void end();

    void value(const char *key, const std::string &v);
    void value(const char *key, const char *v);

    /** bool, integer or floating-point value. */
    template <typename T>
    void
    value(const char *key, T v)
    {
        static_assert(std::is_arithmetic_v<T>, "not a JSON scalar");
        member(key);
        if constexpr (std::is_same_v<T, bool>)
            out_ += v ? "true" : "false";
        else if constexpr (std::is_floating_point_v<T>)
            out_ += jsonNumber(static_cast<double>(v));
        else if constexpr (std::is_signed_v<T>)
            out_ += std::to_string(static_cast<long long>(v));
        else
            out_ += std::to_string(static_cast<unsigned long long>(v));
    }

    /** The text written so far. */
    const std::string &str() const { return out_; }

    /** Write str() to @p path; false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Frame
    {
        char close;
        bool inlined;
        std::size_t members;
    };

    /** Separator, indentation and "key": before the next value. */
    void member(const char *key);
    void open(const char *key, char bracket, bool inline_values);

    std::string out_;
    std::vector<Frame> stack_;
};

} // namespace rpcvalet::stats

#endif // RPCVALET_STATS_JSON_HH
