#include "rejoin/join_env.h"

#include "util/check.h"

namespace hfq {

JoinOrderEnv::JoinOrderEnv(RejoinFeaturizer* featurizer,
                           JoinRewardFn reward_fn, JoinEnvConfig config)
    : featurizer_(featurizer),
      reward_fn_(std::move(reward_fn)),
      config_(config) {
  HFQ_CHECK(featurizer != nullptr);
  HFQ_CHECK(reward_fn_ != nullptr);
}

void JoinOrderEnv::SetQuery(const Query* query) {
  HFQ_CHECK(query != nullptr);
  HFQ_CHECK(query->num_relations() <= featurizer_->max_relations());
  query_ = query;
  feat_cache_.Bind(FeaturizeCache::NewBinding());
  done_ = true;  // Must Reset() before stepping.
}

void JoinOrderEnv::Reset() {
  HFQ_CHECK_MSG(query_ != nullptr, "SetQuery before Reset");
  subtrees_.clear();
  for (int rel = 0; rel < query_->num_relations(); ++rel) {
    subtrees_.push_back(JoinTreeNode::Leaf(rel));
  }
  done_ = subtrees_.size() <= 1;
  // A trivial episode has nothing to score.
  scored_ = done_;
  terminal_reward_ = 0.0;
}

std::unique_ptr<SearchEnv> JoinOrderEnv::CloneSearch() const {
  auto clone =
      std::make_unique<JoinOrderEnv>(featurizer_, reward_fn_, config_);
  clone->query_ = query_;
  clone->feat_cache_.Bind(feat_cache_.binding);
  clone->done_ = done_;
  clone->scored_ = scored_;
  clone->terminal_reward_ = terminal_reward_;
  clone->subtrees_.reserve(subtrees_.size());
  for (const auto& tree : subtrees_) {
    clone->subtrees_.push_back(tree->Clone());
  }
  return clone;
}

double JoinOrderEnv::TerminalReward() {
  HFQ_CHECK(done_);
  if (!scored_) {
    terminal_reward_ = reward_fn_(*query_, *FinalTree());
    scored_ = true;
  }
  return terminal_reward_;
}

double JoinOrderEnv::FinalCost() { return -TerminalReward(); }

bool JoinOrderEnv::TryCopySearchStateFrom(const SearchEnv& other) {
  const auto* src = dynamic_cast<const JoinOrderEnv*>(&other);
  if (src == nullptr || src == this) return false;
  // Full copy, wiring included, so a pooled env from any earlier search is
  // reusable — only the subtree buffer's capacity survives from this
  // object. Equivalent to CloneSearch into existing storage.
  featurizer_ = src->featurizer_;
  reward_fn_ = src->reward_fn_;
  config_ = src->config_;
  query_ = src->query_;
  feat_cache_.BindLike(src->feat_cache_);
  done_ = src->done_;
  scored_ = src->scored_;
  terminal_reward_ = src->terminal_reward_;
  subtrees_.clear();
  subtrees_.reserve(src->subtrees_.size());
  for (const auto& tree : src->subtrees_) {
    subtrees_.push_back(tree->Clone());
  }
  return true;
}

int JoinOrderEnv::state_dim() const { return featurizer_->FeatureDim(); }

int JoinOrderEnv::action_dim() const {
  const int n = featurizer_->max_relations();
  return n * n;
}

std::vector<const JoinTreeNode*> JoinOrderEnv::Subtrees() const {
  std::vector<const JoinTreeNode*> out;
  out.reserve(subtrees_.size());
  for (const auto& t : subtrees_) out.push_back(t.get());
  return out;
}

std::vector<double> JoinOrderEnv::StateVector() const {
  HFQ_CHECK(query_ != nullptr);
  return featurizer_->Featurize(*query_, Subtrees(), &feat_cache_);
}

std::pair<int, int> JoinOrderEnv::DecodeAction(int action) const {
  const int n = featurizer_->max_relations();
  return {action / n, action % n};
}

int JoinOrderEnv::EncodeAction(int x, int y) const {
  return x * featurizer_->max_relations() + y;
}

std::vector<bool> JoinOrderEnv::ActionMask() const {
  HFQ_CHECK(query_ != nullptr);
  std::vector<bool> mask(static_cast<size_t>(action_dim()), false);
  if (done_) return mask;
  const int live = static_cast<int>(subtrees_.size());
  bool any_connected = false;
  for (int x = 0; x < live; ++x) {
    for (int y = 0; y < live; ++y) {
      if (x == y) continue;
      bool connected =
          query_->HasJoinBetween(subtrees_[static_cast<size_t>(x)]->rels,
                                 subtrees_[static_cast<size_t>(y)]->rels);
      if (connected) {
        any_connected = true;
        mask[static_cast<size_t>(EncodeAction(x, y))] = true;
      } else if (config_.allow_cross_products) {
        mask[static_cast<size_t>(EncodeAction(x, y))] = true;
      }
    }
  }
  if (!any_connected && !config_.allow_cross_products) {
    // Join graph is (currently) disconnected: cross products are forced.
    for (int x = 0; x < live; ++x) {
      for (int y = 0; y < live; ++y) {
        if (x != y) mask[static_cast<size_t>(EncodeAction(x, y))] = true;
      }
    }
  }
  return mask;
}

StepResult JoinOrderEnv::Step(int action) {
  HFQ_CHECK(!done_);
  auto [x, y] = DecodeAction(action);
  const int live = static_cast<int>(subtrees_.size());
  HFQ_CHECK_MSG(x >= 0 && y >= 0 && x < live && y < live && x != y,
                "invalid join action");
  int lo = std::min(x, y);
  int hi = std::max(x, y);
  // (x, y): x becomes the left/outer child regardless of slot order.
  std::unique_ptr<JoinTreeNode> left = std::move(subtrees_[
      static_cast<size_t>(x)]);
  std::unique_ptr<JoinTreeNode> right = std::move(subtrees_[
      static_cast<size_t>(y)]);
  subtrees_[static_cast<size_t>(lo)] =
      JoinTreeNode::Join(std::move(left), std::move(right));
  subtrees_.erase(subtrees_.begin() + hi);

  done_ = subtrees_.size() == 1;
  return StepResult{done_};
}

bool JoinOrderEnv::Done() const { return done_; }

const JoinTreeNode* JoinOrderEnv::FinalTree() const {
  HFQ_CHECK(done_ && subtrees_.size() == 1);
  return subtrees_[0].get();
}

}  // namespace hfq
