package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld
import repro.mm.{HmmMatcher, Nearest}
import repro.nn.{GradTape, NoTape, Ops, Tape, Tensor}

/** The block-split heads (`TrmmaModel.Heads`, `MmaModel.Scorer`) against
  * the concatenated-input heads of [[ReferenceHeads]]: the same function,
  * with sums re-associated, so values agree within 1e-9 (relative to
  * max(1, |value|)) and no decoded argmax may flip.
  */
class HeadsSpec extends AnyFunSuite {
  import TestWorld._

  private val Tol = 1e-9

  private lazy val trmma: TrmmaModel = {
    val m = TrmmaModel.init(net, TrmmaConfig(), node2vec)
    TrmmaModel.train(m, trainSet, epochs = 2)
    m
  }

  private lazy val mma: MmaModel = {
    val m = MmaModel.init(net, MmaConfig(), node2vec)
    MmaModel.train(m, trainSet, epochs = 1)
    m
  }

  private def err(a: Double, b: Double): Double = math.abs(a - b) / math.max(1.0, math.abs(b))

  private def maxErr(a: Tensor, b: Tensor): Double = {
    assert(a.rows == b.rows && a.cols == b.cols, s"$a vs $b")
    a.data.indices.map(i => err(a.data(i), b.data(i))).foldLeft(0.0)(math.max)
  }

  /** Loss and every parameter gradient of `loss` against `reference`. */
  private def lossAndGrads(params: Seq[Tensor], loss: Tape => Tensor, reference: Tape => Tensor): (Double, Double) = {
    val tpA = new GradTape; val la = loss(tpA); tpA.backward(la)
    val tpB = new GradTape; val lb = reference(tpB); tpB.backward(lb)
    val gradErr = params.map { p =>
      val ga = tpA.grad(p); val gb = tpB.grad(p)
      ga.indices.map(i => err(ga(i), gb(i))).foldLeft(0.0)(math.max)
    }.max
    (err(la.data(0), lb.data(0)), gradErr)
  }

  test("TRMMA heads match the concatenated heads on logits and ratios") {
    implicit val tp: Tape = NoTape
    var worst = 0.0; var slots = 0
    trainSet.take(12).foreach { t =>
      val s = trmma.prepareTrain(t)
      val hEnc = trmma.encode(s)
      val heads = new trmma.Heads(hEnc)
      val h = Ops.meanRows(hEnc)
      s.denseSeg.indices.filterNot(s.observed).foreach { j =>
        val lo = s.slotLo(j); val hi = s.slotHi(j)
        val hWin = Ops.sliceRows(hEnc, lo, hi + 1)
        val geo = trmma.geoFeats(s, j, lo, hi)
        val w = heads.classLogits(h, lo, hi, geo)
        val wRef = ReferenceHeads.classLogits(trmma, h, hWin, geo)
        worst = math.max(worst, maxErr(w, wRef))
        (0 to hi - lo).foreach { k =>
          worst = math.max(worst, maxErr(heads.ratioHead(h, lo, hi, w, k, geo),
            ReferenceHeads.ratioHead(trmma, h, hWin, wRef, k, geo)))
        }
        slots += 1
      }
    }
    info(f"$slots slots, max relative difference $worst%.2e")
    assert(slots > 0 && worst < Tol, f"max relative difference $worst%.2e")
  }

  test("TRMMA loss and every parameter gradient match the concatenated heads") {
    trainSet.take(12).foreach { t =>
      val s = trmma.prepareTrain(t)
      val (lossErr, gradErr) = lossAndGrads(trmma.params, tp => trmma.loss(s)(tp),
        tp => ReferenceHeads.trmmaLoss(trmma, s)(tp))
      assert(lossErr < Tol && gradErr < Tol, f"traj ${t.id}: loss $lossErr%.2e, gradient $gradErr%.2e")
    }
  }

  test("TRMMA decode of the test set has no argmax flip against the concatenated heads") {
    val rec = new Trmma(trmma, new TruthMatcher, cfg.epsilon)
    var worstR = 0.0; var slots = 0
    val flips = testSet.flatMap { t =>
      val (s, times) = rec.prepare(t, rec.matcher.matchTraj(t))
      val out = trmma.decode(s, times)
      val ref = ReferenceHeads.decode(trmma, s, times)
      slots += out.length
      out.indices.foreach(j => worstR = math.max(worstR, err(out(j).r, ref(j).r)))
      out.indices.find(j => out(j).seg != ref(j).seg)
        .map(j => s"traj ${t.id} slot $j: segment ${out(j).seg} vs ${ref(j).seg}")
    }
    info(f"$slots slots decoded, ${flips.size} flips, max ratio difference $worstR%.2e")
    assert(flips.isEmpty, flips.mkString("argmax flips: ", "; ", ""))
    assert(worstR < Tol, f"max ratio difference $worstR%.2e")
  }

  test("TRMMA decode on recycled scratch arrays equals the NoTape loop bit for bit") {
    // Routes from three matchers; the planner's routes may revisit a segment,
    // where `decode`'s `densePos` and the reference's route scan could part.
    val matchers = Seq(new TruthMatcher, new Nearest(net, planner), new HmmMatcher(net, planner))
    var revisits = 0
    matchers.foreach { matcher =>
      val rec = new Trmma(trmma, matcher, cfg.epsilon)
      var slots = 0
      testSet.foreach { t =>
        val (s, times) = rec.prepare(t, matcher.matchTraj(t))
        if (s.route.distinct.length < s.route.length) revisits += 1
        val out = trmma.decode(s, times)
        val ref = ReferenceHeads.splitDecode(trmma, s, times)
        slots += out.length
        val who = s"${matcher.getClass.getSimpleName} traj ${t.id}"
        assert(out.map(_.seg).sameElements(ref.map(_.seg)), s"$who: segments")
        assert(out.map(p => java.lang.Double.doubleToLongBits(p.r)).sameElements(
          ref.map(p => java.lang.Double.doubleToLongBits(p.r))), s"$who: ratios")
      }
      info(s"${matcher.getClass.getSimpleName}: $slots slots decoded")
    }
    info(s"$revisits routes revisit a segment")
    assert(revisits > 0, "no route revisits a segment")
  }

  test("MMA logits, loss and every parameter gradient match the concatenated head; logitsFor equals its Scorer row") {
    implicit val tp: Tape = NoTape
    var worst = 0.0
    trainSet.take(12).foreach { t =>
      val s = mma.prepare(t, withLabels = true)
      val z2 = mma.encodePoints(s)
      val scorer = new mma.Scorer(z2)
      s.cands.indices.foreach { i =>
        val z2i = Ops.sliceRows(z2, i, i + 1); val c = mma.candEmbed(s, i)
        val logits = mma.logitsFor(z2i, c)
        assert(scorer.logits(i, c).data.map(java.lang.Double.doubleToLongBits)
          .sameElements(logits.data.map(java.lang.Double.doubleToLongBits)), s"point $i")
        worst = math.max(worst, maxErr(logits, ReferenceHeads.mmaLogits(mma, z2i, c)))
      }
      val (lossErr, gradErr) = lossAndGrads(mma.params, tp => mma.loss(s)(tp),
        tp => ReferenceHeads.mmaLoss(mma, s)(tp))
      assert(lossErr < Tol && gradErr < Tol, f"traj ${t.id}: loss $lossErr%.2e, gradient $gradErr%.2e")
    }
    assert(worst < Tol, f"max logit difference $worst%.2e")
  }

  test("MMA predictions on the test set have no argmax flip against the concatenated head") {
    val flips = testSet.flatMap { t =>
      val out = mma.predictSegments(t)
      val ref = ReferenceHeads.predictSegments(mma, mma.prepare(t, withLabels = false))
      out.indices.find(i => out(i) != ref(i)).map(i => s"traj ${t.id} point $i: segment ${out(i)} vs ${ref(i)}")
    }
    info(s"${testSet.size} trajectories, ${flips.size} flips")
    assert(flips.isEmpty, flips.mkString("argmax flips: ", "; ", ""))
  }
}
