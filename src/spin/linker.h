// SPIN's dynamic linker (paper Section 2, [SFPB96]).
//
// The real linker "accepts extensions implemented as partially resolved
// object files that have been signed by our Modula-3 compiler" and resolves
// their undefined symbols against a logical protection domain, rejecting the
// extension if any symbol falls outside the domain. Our Extension carries an
// import list (the undefined symbols), a compiler signature flag (standing
// in for the typesafety proof), and init/cleanup bodies (the module's
// BEGIN...END block, which is where real Plexus extensions install their
// guard/handler pairs — see Figure 2 of the paper).
//
// Runtime adaptation: extensions "can come and go with their corresponding
// applications" — Unlink runs the cleanup body, which must uninstall the
// extension's handlers.
#ifndef PLEXUS_SPIN_LINKER_H_
#define PLEXUS_SPIN_LINKER_H_

#include <any>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/host.h"
#include "spin/domain.h"
#include "spin/result.h"

namespace spin {

using ExtensionId = std::uint64_t;

// The symbol values resolved for an extension at link time.
class SymbolTable {
 public:
  const std::any& Get(const std::string& symbol) const {
    static const std::any kEmpty;
    auto it = table_.find(symbol);
    return it == table_.end() ? kEmpty : it->second;
  }

  template <typename T>
  T GetAs(const std::string& symbol) const {
    return std::any_cast<T>(Get(symbol));
  }

  void Put(std::string symbol, std::any value) { table_[std::move(symbol)] = std::move(value); }

 private:
  std::unordered_map<std::string, std::any> table_;
};

class Extension {
 public:
  explicit Extension(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Declares an undefined symbol the linker must resolve.
  Extension& Require(std::string symbol) {
    imports_.push_back(std::move(symbol));
    return *this;
  }

  // Marks the object as signed by the (typesafe) compiler. Unsigned
  // extensions are rejected — except through LinkUnsafe, the escape hatch
  // the paper uses for the vendor TCP/IP code ("one of the few cases in
  // SPIN where we allow code not written in Modula-3 to be downloaded").
  Extension& SetSigned(bool v) {
    signed_ = v;
    return *this;
  }
  bool is_signed() const { return signed_; }

  Extension& OnInit(std::function<void(const SymbolTable&)> fn) {
    init_ = std::move(fn);
    return *this;
  }
  Extension& OnCleanup(std::function<void()> fn) {
    cleanup_ = std::move(fn);
    return *this;
  }

  const std::vector<std::string>& imports() const { return imports_; }

 private:
  friend class DynamicLinker;
  std::string name_;
  std::vector<std::string> imports_;
  bool signed_ = true;
  std::function<void(const SymbolTable&)> init_;
  std::function<void()> cleanup_;
};

class DynamicLinker {
 public:
  // host may be null (no cost accounting).
  explicit DynamicLinker(sim::Host* host = nullptr) : host_(host) {}
  DynamicLinker(const DynamicLinker&) = delete;
  DynamicLinker& operator=(const DynamicLinker&) = delete;

  // Resolves every import against `domain`; on success runs the extension's
  // init body with the resolved symbols and returns its id. "If an extension
  // references a symbol that is not contained within the logical protection
  // domain against which it is being linked, the link will fail and the
  // extension will be rejected."
  Result<ExtensionId> Link(Extension ext, const DomainPtr& domain);

  // As Link, but accepts unsigned extensions (trusted vendor code).
  Result<ExtensionId> LinkUnsafe(Extension ext, const DomainPtr& domain);

  // Runs the extension's cleanup and removes it. Returns false if unknown.
  bool Unlink(ExtensionId id);

  std::size_t loaded_count() const { return loaded_.size(); }

 private:
  Result<ExtensionId> DoLink(Extension ext, const DomainPtr& domain, bool require_signature);

  struct Loaded {
    std::string name;
    std::function<void()> cleanup;
  };

  sim::Host* host_;
  std::unordered_map<ExtensionId, Loaded> loaded_;
  ExtensionId next_id_ = 1;
};

}  // namespace spin

#endif  // PLEXUS_SPIN_LINKER_H_
