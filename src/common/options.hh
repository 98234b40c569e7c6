/**
 * @file
 * Declared, typed command-line options for the bench and example
 * binaries.
 *
 * Each binary declares its knobs once, with a type, a default, and a
 * help string (plus optional range/choice constraints):
 *
 *     Options opts("fig4_performance", "Figure 4: normalized time");
 *     auto &voltage =
 *         opts.add<double>("voltage", 0.625, "normalized L2 VDD")
 *             .range(0.5, 1.0);
 *     opts.parse(argc, argv);
 *     ... use voltage.value() (or double(voltage)) ...
 *
 * parse() accepts "key=value" tokens, the GNU-style "--key=value" /
 * "--key value" spellings (a bare "--flag" sets a bool option), and
 * --help/-h/help. Unknown keys, malformed numbers, and out-of-range
 * values are all fatal() — a typo'd knob can never silently run the
 * experiment with defaults. Values fall back to KILLI_-prefixed
 * environment variables ("l2.size" -> KILLI_L2_SIZE), and --help
 * output is generated from the declarations.
 */

#ifndef KILLI_COMMON_OPTIONS_HH
#define KILLI_COMMON_OPTIONS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace killi
{

/** Strict scalar parsers behind Options. Each returns false unless
 *  the *entire* token is a valid value. */
bool tryParseInt(const std::string &text, std::int64_t &out);
bool tryParseUint(const std::string &text, std::uint64_t &out);
bool tryParseDouble(const std::string &text, double &out);
bool tryParseBool(const std::string &text, bool &out);

class Options;

/** Type-erased base: one declared option. */
class OptionBase
{
  public:
    OptionBase(std::string name, std::string help)
        : optName(std::move(name)), helpText(std::move(help))
    {
    }
    virtual ~OptionBase() = default;

    const std::string &name() const { return optName; }
    const std::string &help() const { return helpText; }
    /** True iff explicitly set via CLI or environment. */
    bool isSet() const { return set; }

    virtual const char *typeName() const = 0;
    /** Parse and validate; fatal() with a precise message on error. */
    virtual void parseValue(const std::string &text,
                            const std::string &source) = 0;
    virtual std::string defaultText() const = 0;
    virtual std::string constraintText() const = 0;
    virtual Json valueJson() const = 0;

  protected:
    friend class Options;
    std::string optName;
    std::string helpText;
    bool set = false;
};

/** A declared option of type T with its current (or default) value. */
template <typename T>
class Option : public OptionBase
{
  public:
    Option(std::string name, T dflt, std::string help)
        : OptionBase(std::move(name), std::move(help)), val(dflt),
          dflt(dflt)
    {
    }

    /** Restrict numeric values to [lo, hi]; fatal() outside. */
    Option &
    range(T lo, T hi)
    {
        loBound = lo;
        hiBound = hi;
        return *this;
    }

    /** Restrict to an explicit value set; fatal() otherwise. */
    Option &
    choices(std::vector<T> allowed)
    {
        allowedValues = std::move(allowed);
        return *this;
    }

    const T &value() const { return val; }
    operator const T &() const { return val; }

    const char *typeName() const override;
    void parseValue(const std::string &text,
                    const std::string &source) override;
    std::string defaultText() const override;
    std::string constraintText() const override;
    Json valueJson() const override;

  private:
    T val;
    T dflt;
    std::optional<T> loBound;
    std::optional<T> hiBound;
    std::vector<T> allowedValues;
};

class Options
{
  public:
    /**
     * @param program binary name shown in --help (and used as the
     *        default results-file stem by the bench binaries)
     * @param summary one-line description for --help
     */
    Options(std::string program, std::string summary);
    ~Options();

    Options(const Options &) = delete;
    Options &operator=(const Options &) = delete;

    /**
     * Declare an option. The returned reference stays valid for the
     * lifetime of this Options object; read it after parse().
     * Redeclaring a name is fatal().
     */
    template <typename T>
    Option<T> &add(const std::string &name, T dflt,
                   const std::string &help);

    /** Shorthand for string options (avoids add<std::string>(...)). */
    Option<std::string> &add(const std::string &name, const char *dflt,
                             const std::string &help);

    /**
     * Parse argv-style "key=value" tokens; "--key=value", "--key
     * value", and bare bool "--flag" are accepted as equivalent
     * spellings. --help/-h/help prints the generated usage text and
     * exits(0). Unknown keys, malformed values, and constraint
     * violations are fatal(). Options not set on the command line
     * fall back to KILLI_* environment variables.
     */
    void parse(int argc, char **argv);

    /** True iff @p name was explicitly set (CLI or environment). */
    bool has(const std::string &name) const;

    /** Typed access by name (declared options only; fatal() else). */
    template <typename T> const T &get(const std::string &name) const;

    /** Generated usage text. */
    void printHelp(std::ostream &os) const;

    const std::string &program() const { return programName; }

    /**
     * Effective option values as a JSON object, in declaration
     * order — embedded in results files so every experiment records
     * the exact configuration that produced it.
     */
    Json toJson() const;

  private:
    OptionBase *find(const std::string &name) const;
    template <typename T> Option<T> &typed(const std::string &name) const;

    std::string programName;
    std::string summaryText;
    std::vector<std::unique_ptr<OptionBase>> decls;
};

extern template class Option<std::int64_t>;
extern template class Option<std::uint64_t>;
extern template class Option<unsigned>;
extern template class Option<double>;
extern template class Option<bool>;
extern template class Option<std::string>;

} // namespace killi

#endif // KILLI_COMMON_OPTIONS_HH
