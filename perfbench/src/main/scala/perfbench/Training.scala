package perfbench

import repro.core.{MmaConfig, MmaModel, TrmmaConfig, TrmmaModel}
import repro.nn.{Adam, GradTape, Ops, Tape, Tensor}
import repro.traj.Traj
import scala.collection.mutable.ArrayBuffer

/** Training throughput. `MmaModel.train` and `TrmmaModel.train` spread each
  * batch over the `Trainer` pool, and on a shared machine the speed of
  * several cores at once cannot be tracked by a reference on one of them:
  * whole calls moved by 15-30 % between runs. The timed loop therefore runs
  * the steps of `*.train` on this thread (sample preparation, the loss of
  * every sample on one `GradTape`, `backward`, `Adam.step` on the mean
  * gradient, with the same batch sizes and Adam settings), one batch after
  * another, a reference sample before each. Whole `*.train` calls on the
  * pool run in set-up, where their seconds are printed.
  */
object Training {

  /** One model's training step as its `train` runs it. */
  private final case class Steps[S](
      name: String,
      batch: Int,
      params: Seq[Tensor],
      opt: Adam,
      prepare: Traj => S,
      loss: (S, Tape) => Tensor,
  )

  private def mmaSteps(w: World) = {
    val m = MmaModel.init(w.net, MmaConfig(), w.n2v)
    Steps[repro.core.MmaSample]("MMA", 32, m.params, new Adam(m.params, lr = 1e-3),
      m.prepare(_, withLabels = true), (s, tp) => m.loss(s)(tp))
  }

  private def trmmaSteps(w: World) = {
    val m = TrmmaModel.init(w.net, TrmmaConfig(), w.n2v)
    Steps[repro.core.TrmmaSample]("TRMMA", 16, m.params, new Adam(m.params, lr = 2e-3, clipNorm = 50.0),
      m.prepareTrain, (s, tp) => m.loss(s)(tp))
  }

  /** Run `st` over `trajs` batch by batch, as one epoch of `train` does;
    * per batch, record its start and duration in `at` and `ns`.
    */
  private def epoch[S](st: Steps[S], trajs: IndexedSeq[Traj], ctl: SpeedControl, tally: Tally,
                       at: ArrayBuffer[Long], ns: ArrayBuffer[Long]): Unit =
    trajs.grouped(st.batch).foreach { b =>
      ctl.sample()
      val t0 = System.nanoTime()
      val loss = tally.attempt(s"${st.name} train step") {
        val samples = b.map(st.prepare)
        val tp = new GradTape
        val total = samples.map(st.loss(_, tp)).reduceLeft((x, y) => Ops.add(x, y)(tp))
        tp.backward(total)
        st.opt.step(st.params.map(p => tp.grad(p).map(_ / b.size)))
        total.data(0) / b.size
      }
      ns += System.nanoTime() - t0
      at += t0
      loss.foreach(l => if (java.lang.Double.isFinite(l)) tally.ok() else tally.fail(s"${st.name} train step: loss $l"))
    }

  /** Samples per reference-second of MMA and TRMMA training over
    * `2 * samples` and `samples` trajectories, after one untimed batch each. They are drawn
    * from the training and the timed trajectories, so that the cost does
    * not hang on the few trajectories of one training set.
    */
  def time(w: World, ctl: SpeedControl, tally: Tally, samples: Int, out: String => Unit): (Double, Double) = {
    def rate[S](st: Steps[S], samples: Int): Double = {
      val trajs = Iterator.continually(w.train ++ w.timed).flatten.take(samples).toIndexedSeq
      epoch(st, w.warm.take(st.batch), ctl, tally, ArrayBuffer.empty, ArrayBuffer.empty)
      val at = ArrayBuffer.empty[Long]
      val ns = ArrayBuffer.empty[Long]
      epoch(st, trajs, ctl, tally, at, ns)
      ctl.sample()
      val refS = at.indices.map(i => ns(i) * ctl.factor(at(i), at(i), EndToEnd.StepMarginNs)).sum / 1e9
      out(f"${st.name} training on one thread: ${samples / (ns.sum / 1e9)}%.1f samples/s, " +
        f"${samples / refS}%.1f per reference-second")
      samples / refS
    }
    // An MMA sample costs about a third of a TRMMA one; twice as many keep
    // its rate as steady across seeds.
    (rate(mmaSteps(w), 2 * samples), rate(trmmaSteps(w), samples))
  }
}
